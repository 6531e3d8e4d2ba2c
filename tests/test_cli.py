import argparse
import contextlib
import errno
import hashlib
import io
import json
import math
import os
import re
import shlex
import stat
import subprocess
import sys
import threading
from fractions import Fraction
from itertools import chain, product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp, to_str

import brieskorn_wrt.chi as chi
import brieskorn_wrt.cli as cli
import brieskorn_wrt.modularform as modularform
import brieskorn_wrt.topology as topology
from brieskorn_wrt import (
    BrieskornTriple,
    EllTriple,
    PrecisionContext,
    asymptotic_approx,
    build_chi,
    chern_simons,
    flat_connections,
    phi_invariant,
    tau_n,
)
from brieskorn_wrt.cli import (
    _BOUNDS,
    _VERBS,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    MAX_D,
    MAX_K,
    MAX_LEVEL,
    MAX_NMAX,
    MAX_ORDER,
    MAX_PMAX,
    MAX_PRECISION,
    VERBS,
    Command,
    execute,
    main,
    parse,
    render,
)
from brieskorn_wrt.ohtsuki import TABLE_ENV_VAR
from oracles import corrupted_table1, execute_json, json_terms, rational_json, report_terms


# ----------------------------------------------------------------------- parse

# each verb's shortest valid argv and the Command it parses to
MINIMAL = {
    "invariant": (
        ["invariant", "--p", "2,3,7", "--N", "5"],
        Command(verb="invariant", p=(2, 3, 7), n_level=5),
    ),
    "ohtsuki": (["ohtsuki", "--p", "2,3,5"], Command(verb="ohtsuki", p=(2, 3, 5))),
    "cs": (["cs", "--p", "3,4,5"], Command(verb="cs", p=(3, 4, 5))),
    "flat": (["flat", "--p", "5,3,2"], Command(verb="flat", p=(2, 3, 5))),
    "asymptotic": (
        ["asymptotic", "--p", "3,4,5", "--N", "12"],
        Command(verb="asymptotic", p=(3, 4, 5), n_level=12),
    ),
    "verify": (["verify", "--suite", "gamma"], Command(verb="verify", suite="gamma")),
    "table": (["table"], Command(verb="table")),
}


def test_parse_invariant_round_trip():
    cmd = parse(
        ["invariant", "--p", "2,3,7", "--N", "25", "--precision", "60", "--format", "json"]
    )
    assert cmd.verb == "invariant"
    assert cmd.p == (2, 3, 7)
    assert cmd.n_level == 25
    assert cmd.precision == 60
    assert cmd.fmt == "json"


def test_parse_verify_round_trip():
    cmd = parse(["verify", "--suite", "theorem51", "--pmax", "500"])
    assert cmd.verb == "verify"
    assert cmd.suite == "theorem51"
    assert cmd.pmax == 500


def test_parse_rejects_non_coprime(capsys):
    with pytest.raises(SystemExit) as excinfo:
        parse(["invariant", "--p", "2,4,5", "--N", "5"])
    assert excinfo.value.code != 0
    assert "pairwise coprime" in capsys.readouterr().err


def test_parse_rejects_small_p(capsys):
    with pytest.raises(SystemExit) as excinfo:
        parse(["cs", "--p", "1,2,3"])
    assert excinfo.value.code != 0


def test_parse_rejects_low_level():
    with pytest.raises(SystemExit):
        parse(["invariant", "--p", "2,3,7", "--N", "2"])


def test_parse_rejects_unknown_verb():
    with pytest.raises(SystemExit):
        parse(["frobnicate", "--p", "2,3,7"])


def test_parse_rejects_missing_verb():
    with pytest.raises(SystemExit):
        parse([])


def test_parse_rejects_workers_flag():
    with pytest.raises(SystemExit) as excinfo:
        parse(["invariant", "--p", "2,3,7", "--N", "7", "--workers", "2"])
    assert excinfo.value.code == 2


def test_parse_rejects_unbounded_level_and_precision(capsys):
    # the Eichler kernel holds O(N) integers, so --N and --precision are capped
    for argv, flag in (
        (["invariant", "--p", "2,3,5", "--N", "100000000000", "--precision", "20"], "--N"),
        (["invariant", "--p", "2,3,5", "--N", str(MAX_LEVEL + 1)], "--N"),
        (["asymptotic", "--p", "2,3,5", "--N", str(MAX_LEVEL + 1)], "--N"),
        (["cs", "--p", "2,3,7", "--precision", str(MAX_PRECISION + 1)], "--precision"),
        (["verify", "--suite", "modular", "--precision", str(MAX_PRECISION + 1)], "--precision"),
    ):
        with pytest.raises(SystemExit) as excinfo:
            parse(argv)
        assert excinfo.value.code == EXIT_USAGE, argv
        assert flag in capsys.readouterr().err, argv
    argv = ["invariant", "--p", "2,3,5", "--N", str(MAX_LEVEL), "--precision", str(MAX_PRECISION)]
    cmd = parse(argv)
    assert (cmd.n_level, cmd.precision) == (MAX_LEVEL, MAX_PRECISION)


def test_parse_rejects_negative_tail_order(capsys):
    with pytest.raises(SystemExit) as excinfo:
        parse(["asymptotic", "--p", "2,3,5", "--N", "10", "--K", "-1"])
    assert excinfo.value.code == EXIT_USAGE
    assert "--K" in capsys.readouterr().err
    assert parse(["asymptotic", "--p", "2,3,5", "--N", "10", "--K", "0"]).k_max == 0


def test_parse_caps_order_tail_order_and_nmax(capsys):
    # --order and --K set the size of the Bernoulli tables and tails,
    # theorem51 runs the surgery sum at every level up to --nmax and gamma
    # checks every sphere with P <= --pmax, so all four are capped from above
    for argv, flag in (
        (["ohtsuki", "--p", "2,3,7", "--order", str(MAX_ORDER + 1)], "--order"),
        (["asymptotic", "--p", "2,3,7", "--N", "10", "--K", str(MAX_K + 1)], "--K"),
        (["verify", "--suite", "theorem51", "--nmax", str(MAX_NMAX + 1)], "--nmax"),
        (["verify", "--suite", "theorem51", "--nmax", "2000"], "--nmax"),
        (["verify", "--suite", "gamma", "--pmax", str(MAX_PMAX + 1)], "--pmax"),
        (["verify", "--suite", "theorem51", "--pmax", "10000000000"], "--pmax"),
    ):
        with pytest.raises(SystemExit) as excinfo:
            parse(argv)
        assert excinfo.value.code == EXIT_USAGE, argv
        assert flag in capsys.readouterr().err, argv
    assert parse(["ohtsuki", "--p", "2,3,7", "--order", str(MAX_ORDER)]).order == MAX_ORDER
    assert parse(["asymptotic", "--p", "2,3,7", "--N", "10", "--K", str(MAX_K)]).k_max == MAX_K
    assert parse(["verify", "--suite", "theorem51", "--nmax", str(MAX_NMAX)]).nmax == MAX_NMAX
    assert parse(["verify", "--suite", "gamma", "--pmax", str(MAX_PMAX)]).pmax == MAX_PMAX


# every flag of each verb, with values the table reader accepts
PLAIN_EXTRA = ["--precision", "30", "--format", "json", "--out", "r.json"]
VERB_EXTRA = {
    "ohtsuki": ["--order", "3"],
    "asymptotic": ["--K", "2"],
    "verify": ["--pmax", "30", "--nmax", "3"],
}


def test_plain_argv_builds_no_parser_and_render_runs_no_python_encoder(monkeypatch, capsys):
    # plain argv are read off the option table, and JSON reports are laid out
    # by hand: argparse and json's pure-Python encoder stay out of both
    reports = {}
    for verb, (argv, _) in MINIMAL.items():
        argv = [*argv, "--pmax", "30"] if verb == "verify" else argv
        cmd = parse(argv)
        report, _ = execute(cmd)
        reports[verb] = cmd, report, json.dumps(report_terms(report), indent=2) + "\n"
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    def never(*args, **kwargs):
        raise AssertionError("render ran json's pure-Python encoder")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(json.encoder, "_make_iterencode", never)
    for verb, (argv, expected) in MINIMAL.items():
        assert parse(argv) == expected, verb
        full = parse([*argv, *PLAIN_EXTRA, *VERB_EXTRA.get(verb, [])])
        assert (full.precision, full.fmt, full.out) == (30, "json", "r.json"), verb
        assert built == [], verb
    for verb, (cmd, report, reference) in reports.items():
        assert render(cmd, report) == reference, verb
    assert built == []
    assert parse(["cs", "--p=2,3,7"]) == Command(verb="cs", p=(2, 3, 7))
    assert parse(["flat", "--prec", "20", "--p", "2,3,5"]).precision == 20
    with pytest.raises(SystemExit) as excinfo:  # a value with "-" goes to argparse
        parse(["asymptotic", "--p", "3,4,5", "--N", "12", "--K", "-1"])
    assert excinfo.value.code == EXIT_USAGE
    assert capsys.readouterr().err == "error: --K must be between 0 and 100\n"
    assert len(built) == 3 * (1 + len(VERBS))  # one argparse tree per fallback parse
    with pytest.raises(AssertionError, match="pure-Python"):
        json.dumps({}, indent=2)


ARGV_FLAGS = [
    *("--p", "--N", "--precision", "--format", "--out", "--order", "--K"),
    *("--suite", "--pmax", "--nmax", "--prec", "--pm", "--o", "--n", "--f", "--s"),
    *("--P", "--bogus", "--help", "-h", "--", "--p=2,3,7", "--N=5", "--format=csv"),
]
ARGV_VALUES = st.one_of(
    st.integers(-10, 10**6).map(str),
    st.sampled_from(
        ["2,3,7", "5,3,2", "2,4,5", "1,2,3", "7", "2,3", "157,163,167", " 12 ", "1_0", "+7"]
        + ["", "-", "-a b", "-5", "-.5", "-1.5", "-x", "--", "json", "csv", "text", "xml"]
        + ["gamma", "theorem51", "nope", "r.json", "٣٠", "30\n", "-3\n", "1e3", "--p"]
    ),
)
# values each flag accepts or rejects in the usual way
FLAG_VALUES = {
    "--p": ["2,3,7", "3,4,5", "5,3,2", "2,3,100003"],
    "--N": ["5", "12", "2", "1000001"],
    "--precision": ["30", "15", "14", "-5"],
    "--format": ["json", "csv", "text"],
    "--out": ["r.json", "-5", "dir/r.json"],
    "--order": ["0", "3", "101"],
    "--K": ["2", "-1", "100"],
    "--suite": ["theorem51", "table1", "modular", "torsion", "gamma"],
    "--pmax": ["30", "29", "100"],
    "--nmax": ["3", "4", "51"],
}


@st.composite
def argv_from_grammar(draw):
    """A verb, then its flags (or others) with values, and lone tokens, in any order."""
    verb = draw(st.sampled_from([*VERBS, *VERBS, *VERBS, None, "frob", "-h", "--help", "--p"]))
    spec = _VERBS.get(verb)
    own = ["--p"] if spec is None or spec.takes_p else []
    own += ["--precision", "--format", "--out", *(spec.flags if spec else ())]
    words = []
    for kind in draw(st.lists(st.integers(0, 5), max_size=4)):
        if kind < 4:  # mostly a flag of the verb with a usual value
            flag = draw(st.sampled_from(own))
            words.append((flag, draw(st.sampled_from(FLAG_VALUES[flag]))))
        elif kind == 4:
            words.append((draw(st.sampled_from(own + ARGV_FLAGS)), draw(ARGV_VALUES)))
        else:
            words.append((draw(st.sampled_from(ARGV_FLAGS) | ARGV_VALUES),))
    if draw(st.integers(0, 3)):  # mostly name the required flags
        required = [flag for flag in own if flag in ("--p", "--N", "--suite")]
        words += [(flag, draw(st.sampled_from(FLAG_VALUES[flag]))) for flag in required]
    words = draw(st.permutations(words))
    return [verb] * (verb is not None) + list(chain.from_iterable(words))


def _parse_outcome(argv):
    """What parse makes of argv: the Command or the exit code, and stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(argv_from_grammar())
@example(["invariant", "--p", "2,3,7", "--N", "-5"])
@example(["verify", "--suite", "gamma", "--pmax", " 30 ", "--nmax", "1_0"])
@example(["cs", "--p", "2,3,7", "--out", "-5", "--format", "csv", "--format", "xml"])
@example(["flat", "--p", "2,3,5", "--precision", "-.5"])
@example(["invariant", "--N", "5", "--p", "2,3,7", "--out", "-x"])
def test_table_reader_matches_argparse(argv):
    # the plain reader may only skip argparse, never change what argv means
    with mock.patch.dict("os.environ", {"COLUMNS": "80"}):
        got = _parse_outcome(argv)
        with mock.patch.object(cli, "_read_plain", lambda argv: None):
            assert got == _parse_outcome(argv)


def test_parse_after_a_usage_error_is_unaffected(capsys):
    # the shared parser keeps no state from a rejected argv
    with pytest.raises(SystemExit) as excinfo:
        parse(["asymptotic", "--p", "2,3,5", "--N", "2", "--K", "7", "--precision", "30"])
    assert excinfo.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as excinfo:
        parse(["invariant", "--p", "2,3,7", "--bogus", "1"])
    assert excinfo.value.code == EXIT_USAGE
    capsys.readouterr()
    assert parse(["asymptotic", "--p", "3,4,5", "--N", "12"]) == Command(
        verb="asymptotic", p=(3, 4, 5), n_level=12
    )
    assert parse(["verify", "--suite", "gamma"]) == Command(verb="verify", suite="gamma")
    assert set(MINIMAL) == set(VERBS)
    for verb, (argv, expected) in MINIMAL.items():
        assert parse(argv) == expected, verb
    cmd = Command(verb="verify")
    assert (cmd.order, cmd.k_max, cmd.precision, cmd.pmax, cmd.nmax) == (8, 4, 50, 1000, 25)


# the ranges README.md documents
RANGES = {
    "--N": (3, 10**6),
    "--precision": (15, 10**4),
    "--pmax": (30, 10**5),
    "--nmax": (3, 50),
    "--order": (0, 100),
    "--K": (0, 100),
}


@pytest.mark.parametrize("flag", list(_BOUNDS))
def test_each_bound_is_enforced_at_both_ends(flag, capsys):
    field, least, greatest, _ = _BOUNDS[flag]
    assert (least, greatest) == RANGES[flag]
    verb = next(v for v, spec in _VERBS.items() if flag in (*spec.flags, "--precision"))
    argv = MINIMAL[verb][0]
    for value in (least - 1, greatest + 1):
        with pytest.raises(SystemExit) as excinfo:
            parse([*argv, flag, str(value)])
        assert excinfo.value.code == EXIT_USAGE, value
        assert flag in capsys.readouterr().err, value
    for value in (least, greatest):
        assert getattr(parse([*argv, flag, str(value)]), field) == value


def test_d_cap_applies_where_cost_grows_with_d(capsys):
    # cs and flat print D records and asymptotic costs O(p1 p2); invariant
    # and ohtsuki never look at D
    above, below = "157,163,167", "151,157,163"
    assert BrieskornTriple(157, 163, 167).D == 1_048_788 > MAX_D
    assert BrieskornTriple(151, 157, 163).D == 947_700 <= MAX_D
    for verb, extra in (("cs", []), ("flat", []), ("asymptotic", ["--N", "10"])):
        with pytest.raises(SystemExit) as excinfo:
            parse([verb, "--p", above, *extra])
        assert excinfo.value.code == EXIT_USAGE, verb
        assert "--p" in capsys.readouterr().err, verb
        assert parse([verb, "--p", below, *extra]).p == (151, 157, 163)
    for verb, extra in (("invariant", ["--N", "10"]), ("ohtsuki", [])):
        for text in (above, below):
            assert parse([verb, "--p", text, *extra]).p == tuple(map(int, text.split(",")))


# argv and its whole stderr; every one exits 2 and prints nothing to stdout
USAGE_ERRORS = {
    ("frobnicate", "--p", "2,3,7"): (
        "error: argument invariant|ohtsuki|cs|flat|asymptotic|verify|table: invalid choice:"
        " 'frobnicate' (choose from 'invariant', 'ohtsuki', 'cs', 'flat', 'asymptotic',"
        " 'verify', 'table')\n"
    ),
    (): "error: missing verb; expected one of invariant, ohtsuki, cs, flat, asymptotic, verify,"
    " table\n",
    ("invariant", "--N", "5"): "error: the following arguments are required: --p\n",
    ("invariant", "--p", "2,3,7"): "error: the following arguments are required: --N\n",
    ("invariant", "--p", "2,3,7", "--N", "x"): "error: argument --N: invalid int value: 'x'\n",
    ("cs", "--p", "2,3,7", "--format", "xml"): (
        "error: argument --format: invalid choice: 'xml' (choose from 'json', 'csv', 'text')\n"
    ),
    ("verify", "--suite", "nope"): (
        "error: argument --suite: invalid choice: 'nope' (choose from 'theorem51', 'table1',"
        " 'modular', 'torsion', 'gamma')\n"
    ),
    ("cs", "--p", "2,3,7", "--bogus", "1"): "error: unrecognized arguments: --bogus 1\n",
    ("cs", "--p"): "error: argument --p: expected one argument\n",
    ("cs", "--p", "2,3,7", "--out", "-x"): "error: argument --out: expected one argument\n",
    ("ohtsuki", "--p", "2,3,7", "--o", "3"): (
        "error: ambiguous option: --o could match --out, --order\n"
    ),
}


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=lambda argv: " ".join(argv) or "(empty)")
def test_usage_error_messages(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        parse(list(argv))
    assert excinfo.value.code == EXIT_USAGE
    assert capsys.readouterr() == ("", USAGE_ERRORS[argv])


def test_abbreviated_and_equals_forms_parse_as_the_plain_form():
    plain = parse(["invariant", "--p", "2,3,7", "--N", "5", "--precision", "40"])
    assert parse(["invariant", "--p", "2,3,7", "--N", "5", "--prec", "40"]) == plain
    assert parse(["invariant", "--p=2,3,7", "--N", "5", "--precision", "40"]) == plain


# sha256 of the help text at 80 columns
HELP_STDOUT = {
    ("--help",): "0f8902be33367d6c3388c2d364d57eb9757331ab6871c42676f64d1dbb386d9b",
    ("flat", "--help"): "83b957b691d3684ae19b01cd6b5159aaab76a93824dfaee48f88f4384d974b3a",
}


@pytest.mark.parametrize("argv", HELP_STDOUT, ids=" ".join)
def test_help_matches_golden_digest(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_STDOUT[argv]


# --------------------------------------------------------------------- execute


def test_cs_spectrum_json():
    report, code, laid = execute_json(["cs", "--p", "3,4,5"])
    assert code == EXIT_OK
    assert report.status == "ok"
    spectrum = laid["results"]["cs_spectrum"]
    got = [(tuple(e["ell"]), e["cs"]["num"], e["cs"]["den"]) for e in spectrum]
    assert got == [
        ((1, 1, 3), "119", "240"),
        ((1, 1, 4), "-49", "240"),
        ((1, 2, 1), "-1", "60"),
        ((1, 2, 2), "11", "60"),
    ]


def test_cs_reads_chern_simons_without_flat_connection_records(monkeypatch):
    # cs prints CS values only: no torsion amplitude or spectral flow is built
    records = flat_connections(BrieskornTriple(7, 11, 13))
    expected = [{"ell": list(r.triple.ell), "cs": rational_json(r.cs)} for r in records]
    rows = [",".join(map(str, (*r.triple.ell, r.cs.numerator, r.cs.denominator))) for r in records]

    def never(*args):
        raise AssertionError("cs must not build flat-connection records")

    monkeypatch.setattr(cli, "flat_connections", never)
    for fmt in ("json", "csv"):
        argv = ["cs", "--p", "7,11,13", "--format", fmt]
        report, code, laid = execute_json(argv)
        assert (code, report.status) == (EXIT_OK, "ok")
        assert laid["results"]["cs_spectrum"] == expected
    assert render(parse(argv), report) == "\n".join(["ell1,ell2,ell3,cs_num,cs_den", *rows]) + "\n"


def test_ohtsuki_csv_row():
    cmd = parse(["ohtsuki", "--p", "2,3,5", "--order", "8", "--format", "csv"])
    report, code = execute(cmd)
    assert code == EXIT_OK
    text = render(cmd, report)
    assert (
        "2,3,5,1,-6,45,-464,6224,-102816,2015237,-45679349,1175123730" in text
    )


def test_invariant_json_schema():
    cmd = parse(["invariant", "--p", "2,3,7", "--N", "5"])
    report, code = execute(cmd)
    payload = json.loads(render(cmd, report))
    assert set(payload) == {"command", "results", "metadata", "status"}
    assert payload["status"] == "ok"
    tau = payload["results"]["tau"]
    assert set(tau) == {"re", "im"}
    assert payload["results"]["term_count"] == 4 * 5
    assert payload["metadata"]["precision_digits"] == 50
    assert payload["metadata"]["route"] == "tau_coordinates"


def test_flat_records_json():
    records = execute_json(["flat", "--p", "2,3,5"])[2]["results"]["flat_connections"]
    assert [r["spectral_flow"] for r in records] == [4, 0]
    assert all(set(r) >= {"ell", "cs", "torsion_sqrt", "conjugacy_angles"} for r in records)


def test_asymptotic_reports_error():
    report, code, laid = execute_json(["asymptotic", "--p", "2,3,5", "--N", "64", "--K", "2"])
    assert code == EXIT_OK
    assert float(laid["results"]["abs_error"]) < 0.05
    assert report.metadata["route"] == "eichler_limit"


def test_verify_gamma_small():
    report, code, laid = execute_json(["verify", "--suite", "gamma", "--pmax", "200"])
    assert code == EXIT_OK
    assert report.status == "ok"
    assert laid["results"]["checks"] > 10


def test_verify_gamma_pmax_2000_keeps_caches_bounded(no_enumeration):
    report, code, laid = execute_json(["verify", "--suite", "gamma", "--pmax", "2000"])
    assert code == EXIT_OK
    assert report.status == "ok"
    assert laid["results"]["checks"] == 1113
    # the suite counts gamma without enumerating the lattice; the chi cache stays bounded
    info = build_chi.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize


def test_verify_gamma_never_enumerates_the_lattice(no_enumeration):
    # gamma is counted run by run; enumerate_triples is never called
    report, code = execute(parse(["verify", "--suite", "gamma", "--pmax", "500"]))
    assert (report.status, code) == ("ok", EXIT_OK)


def test_verify_gamma_evaluates_the_closed_form_once_per_sphere(monkeypatch):
    # Casson is -1/2 the closed form, so the suite reads the closed form off it
    calls = []
    real = chi.dedekind_triple_numerator
    monkeypatch.setattr(chi, "dedekind_triple_numerator", lambda p: calls.append(p) or real(p))
    report, code, laid = execute_json(["verify", "--suite", "gamma", "--pmax", "300"])
    assert code == EXIT_OK
    assert len(calls) == laid["results"]["checks"] > 0


def test_verify_gamma_fails_on_a_casson_only_fault(monkeypatch):
    real = cli.casson
    monkeypatch.setattr(cli, "casson", lambda p: real(p) + 1)
    report, code, laid = execute_json(["verify", "--suite", "gamma", "--pmax", "300"])
    assert (code, report.status) == (EXIT_FAIL, "fail")
    assert len(laid["failure"]) == laid["results"]["checks"] > 0


def test_verify_theorem51_trimmed():
    argv = ["verify", "--suite", "theorem51", "--nmax", "4", "--pmax", "100"]
    report, code, laid = execute_json(argv)
    assert code == EXIT_OK
    assert laid["results"]["checks"] > 0


def test_verify_torsion_and_modular_and_table():
    for suite in ("torsion", "modular", "table1"):
        report, code, laid = execute_json(["verify", "--suite", suite])
        assert code == EXIT_OK, suite
        assert report.status == "ok"
        if suite == "torsion":  # one S-torsion residual per manifold, up to D = 180
            assert laid["results"]["checks"] == 6


def test_floating_suites_fail_above_the_printed_tolerance(monkeypatch):
    # at --precision 15 the report's tolerance is 1e-5, so a 1e-3 residual fails
    # the modular and torsion suites as it fails theorem51
    offset = mp.mpf(10) ** -3

    def shifted(real):
        return lambda *args: real(*args) + offset

    faults = {"modular": "theta_eval", "torsion": "verify_s_torsion"}
    for suite, name in faults.items():
        argv = ["verify", "--suite", suite, "--precision", "15"]
        report, code, laid = execute_json(argv)
        assert (code, laid["metadata"]["tolerance"]) == (EXIT_OK, "1e-5"), suite
        with monkeypatch.context() as patch:
            patch.setattr(cli, name, shifted(getattr(cli, name)))
            report, code, laid = execute_json(argv)
        assert (code, report.status) == (EXIT_FAIL, "fail"), suite
        assert laid["failure"], suite


def _suite_failures(suite: str) -> list:
    return execute_json(["verify", "--suite", suite])[2].get("failure", [])


def _mantissa_digits(text: str) -> int:
    return len(text.lstrip("-").partition("e")[0].replace(".", "").lstrip("0"))


def test_encodings_pin_digit_counts_and_failure_field_types(monkeypatch, tmp_path):
    # execute encodes every library value one way; error_budget, residual, abs_error
    # and the modular tau keep the digit counts their runners fix
    invariant = execute_json(["invariant", "--p", "2,3,7", "--N", "5"])[2]["results"]
    asymptotic = execute_json(["asymptotic", "--p", "2,3,5", "--N", "64", "--K", "2"])[2]["results"]
    assert _mantissa_digits(invariant["error_budget"]) == 5
    assert _mantissa_digits(asymptotic["abs_error"]) == 10
    assert _mantissa_digits(invariant["tau"]["re"]) == 50  # --precision digits
    tiny = mp.mpf(10) ** -20 / 7  # a residual with no trailing zeros
    for name, fault in (
        ("rozansky_normalized", lambda real: lambda p, n, ctx: real(p, n, ctx) + tiny),
        ("t_exponent", lambda real: lambda p, ell: real(p, ell) + Fraction(1, 7)),
        ("verify_s_torsion", lambda real: lambda p, ctx: real(p, ctx) + tiny),
        ("mordell_count", lambda real: lambda p: real(p) + 1),
    ):
        monkeypatch.setattr(cli, name, fault(getattr(cli, name)))
    table = tmp_path / "table1.txt"
    table.write_text("2 3 5 : 1 -6 45 -464 6224 -102816 2015237 -45679349 1175123731\n")
    monkeypatch.setenv(TABLE_ENV_VAR, str(table))
    argv = {"theorem51": ["--nmax", "3", "--pmax", "42"], "gamma": ["--pmax", "30"]}
    failures = {}
    for suite in cli.SUITES:
        report, code, laid = execute_json(["verify", "--suite", suite, *argv.get(suite, [])])
        assert (code, report.status) == (EXIT_FAIL, "fail"), suite
        failures[suite] = laid["failure"]
        assert all(isinstance(f["p"], list) for f in laid["failure"]), suite
    first = {suite: found[0] for suite, found in failures.items()}
    for suite in ("theorem51", "modular", "torsion"):
        assert _mantissa_digits(first[suite]["residual"]) == 5, suite
    assert first["modular"]["tau"] == {"re": "0.0", "im": "1.0"}
    assert {"re": "0.3333333333", "im": "0.6666666667"} in [f["tau"] for f in failures["modular"]]
    assert first["gamma"] == {
        "p": [2, 3, 5],
        "gamma_enumerated": 2,
        "gamma_closed_form": {"num": "2", "den": "1"},
        "gamma_lattice": 1,
        "casson": {"num": "-1", "den": "1"},
    }
    assert first["table1"] == {
        "p": [2, 3, 5],
        "order": 8,
        "expected": "1175123731",
        "got": {"num": "1175123730", "den": "1"},
    }


def test_suites_fail_on_a_wrong_s_sign_weight(monkeypatch):
    # the modular and torsion suites read the sign form that the S entries
    # and the asymptotic dominant sum share, so a wrong weight cannot pass
    real = modularform._s_sign

    def flipped(p, l):
        constant, weights = real(p, l)
        return constant, (1 - weights[0], *weights[1:])

    monkeypatch.setattr(modularform, "_s_sign", flipped)
    assert _suite_failures("modular")
    assert _suite_failures("torsion")


def test_suites_and_cs_move_with_the_t_numerator(monkeypatch):
    # T-exponents and Chern-Simons values read one integer numerator; patch
    # every module that imported it by name
    real = chi.t_numerator
    p, ell = BrieskornTriple(2, 3, 7), EllTriple(1, 1, 3)
    before = chern_simons(p, ell)
    for module in (chi, modularform, topology):
        monkeypatch.setattr(module, "t_numerator", lambda p, ell: (real(p, ell) + 2) % (4 * p.P))
    assert _suite_failures("modular")
    assert chern_simons(p, ell) != before


def test_verify_failure_exit_code(monkeypatch, tmp_path):
    monkeypatch.setenv(TABLE_ENV_VAR, str(corrupted_table1(tmp_path, "3 4 5", "198", "199")))
    report, code, laid = execute_json(["verify", "--suite", "table1"])
    assert code == EXIT_FAIL
    assert report.status == "fail"
    assert len(laid["failure"]) == 1


def test_report_is_built_once_and_its_status_follows_its_failures(monkeypatch, tmp_path):
    # execute returns one immutable report: no field can be reassigned, and
    # status reads "fail" exactly when the failures are non-empty
    passing = execute(parse(["invariant", "--p", "2,3,7", "--N", "5"]))
    monkeypatch.setenv(TABLE_ENV_VAR, str(corrupted_table1(tmp_path, "3 4 5", "198", "199")))
    failing = execute(parse(["verify", "--suite", "table1"]))
    for (report, code), status in ((passing, "ok"), (failing, "fail")):
        assert report.status == status == ("fail" if report.failures else "ok")
        assert code == (EXIT_FAIL if report.failures else EXIT_OK)
        for field in ("command", "digits", "values", "failures", "metadata", "status"):
            with pytest.raises(AttributeError):
                setattr(report, field, getattr(report, field))
        with pytest.raises(AttributeError):
            report.extra = None
    assert failing[0]._replace(failures=[]).status == "ok"
    assert passing[0]._replace(failures=[{"error": "injected"}]).status == "fail"


def test_verify_without_checks_fails(monkeypatch, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    monkeypatch.setenv(TABLE_ENV_VAR, str(empty))
    report, code, laid = execute_json(["verify", "--suite", "table1"])
    assert laid["results"]["checks"] == 0
    assert code == EXIT_FAIL
    assert report.status == "fail"
    assert len(laid["failure"]) == 1


# a reference table that cannot be read, by how BWRT_TABLE1_PATH goes wrong:
# (tmp_path -> the path it names, the reason the error line gives)
UNREADABLE_TABLES = {
    "missing": (lambda tmp: tmp / "absent.txt", "No such file or directory"),
    "directory": (lambda tmp: tmp, "Is a directory"),
    "non-integer cell": (
        lambda tmp: corrupted_table1(tmp, "3 4 5", "198", "19x8"),
        "invalid literal for int() with base 10: '19x8'",
    ),
    "row of eight values": (
        lambda tmp: corrupted_table1(tmp, "3 4 5", "198", ""),
        "malformed reference table line: '3 4 5 : 1 -12  -4324 ",
    ),
}
TABLE_VERBS = {"table": ["table"], "verify": ["verify", "--suite", "table1"]}


@pytest.mark.parametrize("verb", TABLE_VERBS)
@pytest.mark.parametrize("case", UNREADABLE_TABLES)
def test_unreadable_reference_table_is_a_usage_error(case, verb, monkeypatch, tmp_path, capsys):
    # exit 2 with one error line, no report and no --out file: exit 1 would
    # claim a verification ran and failed
    table_dir = tmp_path / "table"
    table_dir.mkdir()
    path, reason = UNREADABLE_TABLES[case]
    monkeypatch.setenv(TABLE_ENV_VAR, str(path(table_dir)))
    out = tmp_path / "report.json"
    assert main([*TABLE_VERBS[verb], "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    prefix = f"error: cannot read the reference table {path(table_dir)}: "
    assert captured.err.startswith(prefix + reason), captured.err
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_empty_reference_table_is_not_a_usage_error(monkeypatch, tmp_path, capsys):
    # an empty table reads as no rows: verify runs no checks and fails, table
    # prints the header alone
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    monkeypatch.setenv(TABLE_ENV_VAR, str(empty))
    assert main(["verify", "--suite", "table1"]) == EXIT_FAIL
    assert '"error": "suite ran no checks"' in capsys.readouterr().out
    assert main(["table", "--format", "csv"]) == EXIT_OK
    assert capsys.readouterr().out == "p1,p2,p3," + ",".join(f"lambda_{n}" for n in range(9)) + "\n"


def test_verify_selecting_nothing_is_a_usage_error(capsys):
    # no Brieskorn sphere has P < 30 and no level is below 3
    for argv, flag in (
        (["verify", "--suite", "gamma", "--pmax", "1"], "--pmax"),
        (["verify", "--suite", "theorem51", "--pmax", "29"], "--pmax"),
        (["verify", "--suite", "gamma", "--pmax", "-5"], "--pmax"),
        (["verify", "--suite", "theorem51", "--nmax", "2"], "--nmax"),
    ):
        with pytest.raises(SystemExit) as excinfo:
            parse(argv)
        assert excinfo.value.code == EXIT_USAGE, argv
        assert flag in capsys.readouterr().err, argv
    _, code, laid = execute_json(["verify", "--suite", "gamma", "--pmax", "30"])
    assert (laid["results"]["checks"], code) == (1, EXIT_OK)
    cmd = parse(["verify", "--suite", "theorem51", "--pmax", "30", "--nmax", "3"])
    assert (cmd.pmax, cmd.nmax) == (30, 3)


def test_table_csv_emission():
    cmd = parse(["table", "--format", "csv"])
    report, code = execute(cmd)
    text = render(cmd, report)
    lines = text.strip().splitlines()
    assert lines[0].startswith("p1,p2,p3,lambda_0")
    assert len(lines) == 27  # header + 26 rows
    assert "2,11,21" in text and "3962937841176563555" in text


def test_text_format_prints_the_failures(monkeypatch, tmp_path, capsys):
    # the corrupted reference cell shows up after the results, before metadata
    monkeypatch.setenv(TABLE_ENV_VAR, str(corrupted_table1(tmp_path, "3 4 5", "198", "199")))
    assert main(["verify", "--suite", "table1", "--format", "text"]) == EXIT_FAIL
    text = capsys.readouterr().out
    assert text.startswith("status: fail\nsuite = table1\nchecks = 234\n")
    failure = [line for line in text.splitlines() if line.startswith("failure.")]
    assert failure == [
        "failure.0.p.0 = 3",
        "failure.0.p.1 = 4",
        "failure.0.p.2 = 5",
        "failure.0.order = 2",
        "failure.0.expected = 199",
        "failure.0.got.num = 198",
        "failure.0.got.den = 1",
    ]
    assert "\n".join(failure) + "\nmetadata.precision_digits = 50\n" in text


@pytest.mark.parametrize("stage", ["write", "replace"])
def test_failed_out_write_leaves_nothing(stage, monkeypatch, tmp_path, capsys):
    # --out goes to a temporary file beside the target, renamed only once written
    out = tmp_path / "r.json"

    def full(*args):
        raise OSError(errno.ENOSPC, "No space left on device")

    if stage == "replace":
        monkeypatch.setattr(cli.os, "replace", full)
    else:

        def opening(*args, **kwargs):
            handle = open(*args, **kwargs)
            real_write = handle.write

            def write(text):
                real_write(text[: len(text) // 2])
                full()

            handle.write = write
            return handle

        monkeypatch.setattr(cli, "open", opening, raising=False)
    assert main(["cs", "--p", "2,3,7", "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write --out {out}: No space left on device\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_failure_in_mid_stream_keeps_the_old_out_file(monkeypatch, tmp_path):
    # the records are written as they are laid out; an error after the first
    # leaves a replaceable --out as it was, with no temporary file beside it
    out = tmp_path / "r.json"
    out.write_text("old")
    key, record = _VERBS["flat"].layout
    laid = []

    def failing(entry, digits):
        if laid:
            raise RuntimeError("second record")
        laid.append(entry)
        return record(entry, digits)

    monkeypatch.setitem(_VERBS, "flat", _VERBS["flat"]._replace(layout=(key, failing)))
    with pytest.raises(RuntimeError, match="second record"):
        main(["flat", "--p", "2,3,7", "--out", str(out)])
    assert len(laid) == 1
    assert out.read_text() == "old"
    assert [path.name for path in tmp_path.iterdir()] == ["r.json"]


def test_out_writes_through_a_symlink(tmp_path):
    target, link = tmp_path / "real.json", tmp_path / "link.json"
    target.write_text("old")
    link.symlink_to(target)
    assert main(["cs", "--p", "2,3,7", "--out", str(link)]) == EXIT_OK
    assert link.is_symlink()
    assert json.loads(target.read_text())["status"] == "ok"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.json", "real.json"]


def test_out_writes_into_a_fifo_in_place(tmp_path):
    # a rename would swap the FIFO for a regular file and leave its reader waiting
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    assert main(["cs", "--p", "2,3,7", "--out", str(fifo)]) == EXIT_OK
    reader.join(timeout=60)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert json.loads(received[0])["status"] == "ok"
    assert [path.name for path in tmp_path.iterdir()] == ["pipe"]


def test_out_keeps_hard_links_and_permissions(tmp_path):
    linked, other, single = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    linked.write_text("old")
    os.link(linked, other)
    single.write_text("old")
    single.chmod(0o640)
    for _ in range(2):  # a second call in the same process writes again
        assert main(["cs", "--p", "2,3,7", "--out", str(linked)]) == EXIT_OK
        assert main(["cs", "--p", "2,3,7", "--out", str(single)]) == EXIT_OK
    assert os.path.samefile(linked, other)
    assert json.loads(other.read_text())["status"] == "ok"
    assert stat.S_IMODE(os.stat(single).st_mode) == 0o640
    assert json.loads(single.read_text())["status"] == "ok"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["a.json", "b.json", "c.json"]


def test_out_checks_the_directory_behind_a_symlink(monkeypatch, tmp_path, capsys):
    # the rename happens where the symlink points, so that directory is checked
    def never(*args):
        raise AssertionError("the suite ran before --out was checked")

    monkeypatch.setitem(cli._SUITE_RUNNERS, "gamma", never)
    link = tmp_path / "link.json"
    link.symlink_to(tmp_path / "missing" / "r.json")
    assert main(["verify", "--suite", "gamma", "--out", str(link)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write --out {link}: No such file or directory\n"
    assert [path.name for path in tmp_path.iterdir()] == ["link.json"]


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run_python(args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(args, env=env, capture_output=True, text=True, timeout=120, **kwargs)


def test_out_at_dev_stdout_keeps_the_later_output(tmp_path):
    # --out naming the redirected stdout writes through it, not a new file over it
    report = tmp_path / "f"
    bwrt = f"{shlex.quote(sys.executable)} -m brieskorn_wrt.cli"
    script = f"{{ {bwrt} cs --p 2,3,7 --format csv --out /dev/stdout; echo after; }} > f"
    proc = _run_python(["sh", "-c", script], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    cmd = parse(["cs", "--p", "2,3,7", "--format", "csv"])
    assert report.read_text() == render(cmd, execute(cmd)[0]) + "after\n"
    assert [path.name for path in tmp_path.iterdir()] == ["f"]


def test_out_at_dev_stderr_keeps_the_later_output(tmp_path):
    # --out naming the redirected stderr writes through it, not a new file over it
    report = tmp_path / "g"
    bwrt = f"{shlex.quote(sys.executable)} -m brieskorn_wrt.cli"
    script = f"{{ {bwrt} cs --p 2,3,7 --format csv --out /dev/stderr; echo after >&2; }} 2> g"
    proc = _run_python(["sh", "-c", script], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    cmd = parse(["cs", "--p", "2,3,7", "--format", "csv"])
    assert report.read_text() == render(cmd, execute(cmd)[0]) + "after\n"
    assert [path.name for path in tmp_path.iterdir()] == ["g"]


def test_closed_stdout_pipe_keeps_the_exit_code_and_stderr_quiet(tmp_path):
    # the report goes to stdout in many writes; those after the reader has
    # gone are dropped, with no error printed and the report's exit code
    bwrt = f"{shlex.quote(sys.executable)} -m brieskorn_wrt.cli"
    script = f"{{ {bwrt} flat --p 31,37,41; echo $? > code; }} | head -c 100"
    proc = _run_python(["sh", "-c", script], cwd=tmp_path)
    assert proc.returncode == 0
    assert proc.stdout.startswith('{\n  "command": {') and len(proc.stdout) == 100
    assert proc.stderr == ""
    assert (tmp_path / "code").read_text() == f"{EXIT_OK}\n"


def test_help_prints_no_implementation_notes(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "Exit codes" in out and "Verbs:" in out
    assert "Verb runners" not in out and "encoder" not in out


def test_plain_argv_never_imports_argparse():
    script = (
        "import sys\n"
        "from brieskorn_wrt import cli\n"
        "assert cli.main(['cs', '--p', '2,3,7', '--format', 'csv']) == 0\n"
        "print('argparse' in sys.modules, 'gettext' in sys.modules, file=sys.stderr)\n"
    )
    proc = _run_python([sys.executable, "-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "False False\n"


def test_plain_argv_adds_no_heavy_stdlib_module():
    # dataclasses (with inspect), logging and importlib.resources cost every
    # start-up; the package imports none of them on a plain argv.  site may
    # load some beforehand, so only what the package adds is compared
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from brieskorn_wrt import cli\n"
        "assert cli.main(['ohtsuki', '--p', '2,3,7', '--format', 'csv']) == 0\n"
        "print(' '.join(sorted(set(sys.modules) - before)), file=sys.stderr)\n"
    )
    proc = _run_python([sys.executable, "-c", script])
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stderr.split())
    assert "brieskorn_wrt.ohtsuki" in added
    heavy = {"dataclasses", "inspect", "logging", "importlib.resources"}
    assert added.isdisjoint(heavy), sorted(added & heavy)


def test_out_file_written(tmp_path):
    out = tmp_path / "report.json"
    code = main(["cs", "--p", "2,3,7", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["status"] == "ok"


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert main(["cs", "--p", "2,3,7", "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write --out {out}")
    assert captured.out == ""
    assert not out.exists()


def test_unwritable_out_fails_before_any_work(monkeypatch, tmp_path, capsys):
    # --out is checked before the command runs, and nothing is created
    def never(*args):
        raise AssertionError("the suite ran before --out was checked")

    monkeypatch.setitem(cli._SUITE_RUNNERS, "gamma", never)
    for out, reason in (
        (tmp_path / "missing" / "r.json", "No such file or directory"),
        (tmp_path, "Is a directory"),
        ("", "No such file or directory"),
    ):
        assert main(["verify", "--suite", "gamma", "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write --out {out}: {reason}\n"
        assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_deterministic_output_modulo_wall_time():
    argv = ["invariant", "--p", "2,3,7", "--N", "7"]
    first, _, first_laid = execute_json(argv)
    second, _, second_laid = execute_json(argv)
    first_meta = {k: v for k, v in first.metadata.items() if k != "wall_time_seconds"}
    second_meta = {k: v for k, v in second.metadata.items() if k != "wall_time_seconds"}
    assert first_laid["results"] == second_laid["results"]
    assert first.command == second.command
    assert first_meta == second_meta


# sha256 of stdout less its wall_time_seconds line; a change to any printed
# digit, field or layout fails here
GOLDEN_STDOUT = {
    ("invariant", "--p", "2,3,7", "--N", "100", "--precision", "50"): (
        "f1fb92d13bcfad4626edc95b48b077155e2baf6b77192a8923b2070d9e61674b"
    ),
    ("invariant", "--p", "2,3,7", "--N", "100", "--precision", "100"): (
        "6fd1965a40c6f3a41fbc5c58a043de0725826c4ad364ddc62035a32101c01323"
    ),
    ("invariant", "--p", "2,3,5", "--N", "100", "--precision", "30"): (
        "95b572ff54c61b36e6feb873b8c1ce95317b76f9149ab9d69581405c79f321e1"
    ),
    ("asymptotic", "--p", "7,11,13", "--N", "200", "--K", "3"): (
        "752a0048ad46e0ac4ab903dc7f9fd024ebdd08382fd98a337971f9a22dd97e1c"
    ),
    ("asymptotic", "--p", "2,3,1009", "--N", "50", "--K", "3"): (
        "be5e18549fa0d68656abb2c6deb8a1140d1442075604294585bfb65ce95f8530"
    ),
    ("asymptotic", "--p", "2,3,100003", "--N", "50", "--K", "3"): (
        "94cde6c3f13086121ecf0071417bb39d61971c90692f50da84d508bcaee7c429"
    ),
    ("flat", "--p", "5,7,9"): (
        "d625c63a04896d76698dc9876568a70d4711b8e3580863c9f66b3d970ce6605f"
    ),
    ("ohtsuki", "--p", "2,3,7", "--order", "40"): (
        "c9272d3af846f3209005ddacb9b4cd3b6cf7498304e3dedfe429f6bb8f23ac43"
    ),
    ("asymptotic", "--p", "2,3,5", "--N", "200", "--K", "5"): (
        "6d56a1c105c2130f61b73f46c5806c0be74d784bd02a709905debbdcb0fc3e4e"
    ),
    ("verify", "--suite", "theorem51", "--nmax", "8"): (
        "277a1a6fa246dee6ef0bee2cf0731fc2dee11aecffcd3ce678d5bc5e95c9802a"
    ),
    ("flat", "--p", "7,11,13", "--precision", "40"): (
        "3f9f56895e5ee336ee8af6eacddb009d4a590a18d8c45550b73d579a8c4b420b"
    ),
    ("cs", "--p", "7,11,13", "--format", "csv"): (
        "96c1294ad655bee248b667492e4b3e3e8b32a5d2a13e811ba3fc7f7d54278137"
    ),
    ("invariant", "--p", "2,3,7", "--N", "100", "--format", "text"): (
        "1480582e2a4212da95f95c4e5badc435a09916441963b59e74073b21011de44e"
    ),
    ("cs", "--p", "7,11,13"): (
        "42757d64e53f89fbb04a1570b0c73042b2de584115e7db936328b6fffd8ab1bf"
    ),
    ("flat", "--p", "2,3,5"): (
        "02c534d6a5af5fb98ef862cc803da479a21e70c6aff9626a283e054100f44c93"
    ),
    ("flat", "--p", "5,7,9", "--format", "text"): (
        "d1c479fae3191d097790c46e8dd6cad06b68914fc0f31e15017de284b1d36d51"
    ),
    # the residual cancels to the working floor (abs_error 3.4e-65 at 50 digits)
    ("asymptotic", "--p", "2,3,7", "--N", "5000", "--K", "80"): (
        "513372ac4f900e6266672537d2106dccba44a7558b2ebf1db84d431c49c3440c"
    ),
    # lambda_n at the --order cap
    ("ohtsuki", "--p", "2,3,5", "--order", "100", "--format", "csv"): (
        "e8478e5a4a2397442d0b806382e42e59ed1f09c3a6c0a36fbbc75ed38baf6a6a"
    ),
    ("ohtsuki", "--p", "7,11,13", "--order", "100"): (
        "509e324cefebf2c6dbbfc1da5cad530eb470cea61f34828e164abd65eb7622d5"
    ),
    # every number kind of a report in the text and CSV layouts, and roots of
    # unity at 400 digits
    ("flat", "--p", "31,37,41", "--format", "text"): (
        "001c44d9ac070f847907aa77a661bbbb11cc989f4cc2cb18b0985fe925d06f56"
    ),
    ("cs", "--p", "31,37,41", "--format", "csv"): (
        "ac569f4fec03b07dac639875f6d02ce844e9fe523118478fcf7761ecd9b87682"
    ),
    ("ohtsuki", "--p", "2,3,7", "--order", "20", "--format", "csv"): (
        "0fcfddf5a03fd308c32777317232bd695a8db8c3cba76ee1e78e19e73767dcd4"
    ),
    ("asymptotic", "--p", "7,11,13", "--N", "40", "--K", "6", "--precision", "400"): (
        "7a08fe6d82a0974ee98438666c908c3bc3fc4d2a7474afc38da121311d6d55cf"
    ),
}


@pytest.mark.parametrize("argv", GOLDEN_STDOUT, ids=" ".join)
def test_stdout_matches_golden_digest(argv, capsys):
    assert main(list(argv)) == EXIT_OK
    out = re.sub(r".*wall_time_seconds.*\n", "", capsys.readouterr().out)
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


def test_failing_verify_text_matches_golden_digest(monkeypatch, capsys):
    # a failing report prints its fixed-digit fields (the modular tau at 10
    # digits, each residual at 5) after the results, before metadata
    real = cli.t_exponent
    monkeypatch.setattr(cli, "t_exponent", lambda p, ell: real(p, ell) + Fraction(1, 7))
    assert main(["verify", "--suite", "modular", "--format", "text"]) == EXIT_FAIL
    out = re.sub(r".*wall_time_seconds.*\n", "", capsys.readouterr().out)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ff305d374157a3d2a9bc90e8430119090c66d004664d022fe62a368b244f48e5"
    )


# sha256 of the spectrum verbs' stdout less its wall_time_seconds line, on the
# perfbench spectrum manifolds at both ends of its precision band
SPECTRUM_STDOUT = {
    ("flat", "--p", "5,7,9", "--precision", "30"): (
        "fb2486c871477ec325b0e03333aff10de74808cc966c24c3d9de5e61122825bf"
    ),
    ("ohtsuki", "--p", "5,7,9", "--precision", "30", "--order", "8"): (
        "756ca359e2d1f39848c0f934476727583ea1d8e3a26360b4d577af2b07ba770e"
    ),
    ("asymptotic", "--p", "5,7,9", "--precision", "30", "--N", "3", "--K", "3"): (
        "dfd83c2a08bc7b7bb842afe0915b76b62754b0d5211b69c219a2cf53385a8b50"
    ),
    ("asymptotic", "--p", "5,7,9", "--precision", "30", "--N", "6", "--K", "3"): (
        "434a955c4c72a728bdee131aba5e4fc7fc9f4efd9d32cd2fdacbfa312d16f81f"
    ),
    ("flat", "--p", "5,7,9", "--precision", "51"): (
        "1ab1fd8f8e3bcfdf4bb57fcf2cf39501ca75c1c1256b3d13159296983f383949"
    ),
    ("ohtsuki", "--p", "5,7,9", "--precision", "51", "--order", "8"): (
        "60636a7046334d791427f83588895016d303582a92f12bfd8796dd6c2f45a99e"
    ),
    ("asymptotic", "--p", "5,7,9", "--precision", "51", "--N", "3", "--K", "3"): (
        "c4e7faec91aa76dc38c1459db45dd2f6a43cc9a77c89e3dc6308396250731db5"
    ),
    ("asymptotic", "--p", "5,7,9", "--precision", "51", "--N", "6", "--K", "3"): (
        "615a18aba4acc73e5897fbcabbd850440271570ce410cdae34030dca283f2c14"
    ),
    ("flat", "--p", "2,11,21", "--precision", "30"): (
        "cbd42bb1297ad4da3a4ffc9a390f2693dea136f2582335e78f1936faa269f3d2"
    ),
    ("ohtsuki", "--p", "2,11,21", "--precision", "30", "--order", "8"): (
        "8df2d50f5c681c8ec7d0390d237c3a5c0c0acf91eec4db7dda0128d7cf1ced61"
    ),
    ("asymptotic", "--p", "2,11,21", "--precision", "30", "--N", "3", "--K", "3"): (
        "862658138990076ec6ce7d2797d1a4fa9f9e9ef891cf324dfeb2901a5cbdc038"
    ),
    ("asymptotic", "--p", "2,11,21", "--precision", "30", "--N", "6", "--K", "3"): (
        "a7577cedca40d6fac0fb1a8f2527e524484972f327a215ce09e01c852cd7b980"
    ),
    ("flat", "--p", "2,11,21", "--precision", "51"): (
        "47d2228a9596a11d7ee01e0511989f9c3744dbe9fdd0d5e4d2bd66b0e2727be0"
    ),
    ("ohtsuki", "--p", "2,11,21", "--precision", "51", "--order", "8"): (
        "e6c204720e5fd7636a9c218f1bd1fcadd2d3eb436e1a6feb1006fc7c579c8a4b"
    ),
    ("asymptotic", "--p", "2,11,21", "--precision", "51", "--N", "3", "--K", "3"): (
        "f68720da051e1256f68d00d2f36cc8db61896a9d206d48cf74be470fed9169b5"
    ),
    ("asymptotic", "--p", "2,11,21", "--precision", "51", "--N", "6", "--K", "3"): (
        "902582818311c64e877e3ee6901b7a4d3402f35ea7abc4b6ffd7e4ba01366047"
    ),
    ("flat", "--p", "7,8,9", "--precision", "30"): (
        "af51006f5237ca26713c5d39f6f80b8d9aa57b982de17b794a263ed2c2342116"
    ),
    ("ohtsuki", "--p", "7,8,9", "--precision", "30", "--order", "8"): (
        "73cda1b70d31efbb86c67aac379417335ae444af4ef47dd7f71a356f92900709"
    ),
    ("asymptotic", "--p", "7,8,9", "--precision", "30", "--N", "3", "--K", "3"): (
        "e28787105641582cdfdabfd33e702d913138f2e42f5b10b6cf18bcf8382bff1e"
    ),
    ("asymptotic", "--p", "7,8,9", "--precision", "30", "--N", "6", "--K", "3"): (
        "85dc0f45820a83b9e6f3899b056ffa390b8d6a620180361846e01ae2fb2ec6c3"
    ),
    ("flat", "--p", "7,8,9", "--precision", "51"): (
        "34fb50f1b6557d993708a29eeb43cd3f816a6d222733fa3fcce5c068f24389dd"
    ),
    ("ohtsuki", "--p", "7,8,9", "--precision", "51", "--order", "8"): (
        "d0875e28a19f451a73576e74dd728abd58572785f8ee794fa78bbfadeff8d381"
    ),
    ("asymptotic", "--p", "7,8,9", "--precision", "51", "--N", "3", "--K", "3"): (
        "3deecc741c7bb38f86b8010e64d61226622ff12db9377783136218b895287094"
    ),
    ("asymptotic", "--p", "7,8,9", "--precision", "51", "--N", "6", "--K", "3"): (
        "72551d62ed20036d08fe39a5e797d93fb9b8fd2209f046e78173f258cf21ec93"
    ),
    ("flat", "--p", "7,11,13", "--precision", "30"): (
        "d646227e111a6a12b421a7be4b24ae73c6f8a8f1607111f99cf4ec36510526b4"
    ),
    ("ohtsuki", "--p", "7,11,13", "--precision", "30", "--order", "8"): (
        "2797c32d6b450726861cc720330762d87a5608bd19740c49cf688ff9efd852b3"
    ),
    ("asymptotic", "--p", "7,11,13", "--precision", "30", "--N", "3", "--K", "3"): (
        "47fe239416d1361d0317b2e984d84487093b5c7db35c9ce576bbfea3554cc040"
    ),
    ("asymptotic", "--p", "7,11,13", "--precision", "30", "--N", "6", "--K", "3"): (
        "d4f235aec2adc73914873911fa282747045d4a87a68416b5f711556dad6e16fc"
    ),
    ("flat", "--p", "7,11,13", "--precision", "51"): (
        "c125b58b78764f04641cc9e20a93b2248ebdcf88e89ac68ea459c0cb7300a154"
    ),
    ("ohtsuki", "--p", "7,11,13", "--precision", "51", "--order", "8"): (
        "d73809fab6ea70d026f9b39c40bb781eae8c300be80aa7f19875c3b756cdda22"
    ),
    ("asymptotic", "--p", "7,11,13", "--precision", "51", "--N", "3", "--K", "3"): (
        "6fbb6dbc7bba425a28277d525d190594ebc575737704e6a566c2234e330490e5"
    ),
    ("asymptotic", "--p", "7,11,13", "--precision", "51", "--N", "6", "--K", "3"): (
        "291fae0230bfb6e28e01fcf7b57d95561e48563fc90551807df2b46ad3884543"
    ),
}


@pytest.mark.parametrize("argv", SPECTRUM_STDOUT, ids=" ".join)
def test_spectrum_stdout_matches_golden_digest(argv, capsys):
    assert main(list(argv)) == EXIT_OK
    out = re.sub(r".*wall_time_seconds.*\n", "", capsys.readouterr().out)
    assert hashlib.sha256(out.encode()).hexdigest() == SPECTRUM_STDOUT[argv]


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=10**80).flatmap(lambda n: st.sampled_from([n, -n])),
    st.floats(),
    st.text(),
)


@settings(deadline=None)
@given(
    st.recursive(
        JSON_SCALARS,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=3).map(tuple),
            st.dictionaries(st.text(max_size=6), inner, max_size=4),
        ),
        max_leaves=25,
    )
)
@example({"a": [], "b": {}, "c": [[], {}], "": "\u00e9\n\"\\\u2028\ud83d\ude00\x00", "d": -0.0})
@example([1e300, float("nan"), float("-inf"), True, False, None, 10**40, -(2**64)])
def test_indented_json_equals_json_dumps(value):
    # JSON terms carry no library number, so the digit count plays no part
    assert cli._indented_json(value, 15) == json.dumps(value, indent=2)


MPF_VALUES = st.builds(
    lambda man, exp: mp.make_mpf(from_man_exp(man, exp)),
    st.one_of(
        st.integers(-(2**64), 2**64),
        st.integers(2**100, 2**400),
        st.integers(-(2**400), -(2**100)),
    ),
    st.one_of(st.integers(-400, 400), st.integers(-34000, 34000), st.sampled_from((-33300, 33300))),
)
ROUNDS_ACROSS_A_DIGIT = mp.make_mpf(from_man_exp(899366964825153695, -15))
LIBRARY_VALUES = st.recursive(
    st.one_of(
        MPF_VALUES,
        st.builds(lambda re, im: mp.make_mpc((re._mpf_, im._mpf_)), MPF_VALUES, MPF_VALUES),
        st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
        st.builds(EllTriple, st.integers(1, 100), st.integers(1, 100), st.integers(1, 100)),
        st.builds(cli._Fixed, MPF_VALUES, st.integers(5, 120)),
        st.just(mp.mpf(0)),
        st.integers(),
        st.text(max_size=4),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(deadline=None, max_examples=200)
@given(LIBRARY_VALUES, st.integers(5, 120))
@example({"a": [], "b": {}, "c": ((), {}), "d": mp.mpf(0), "e": -mp.mpf(1) / 3}, 5)
@example([mp.mpf(2) ** 33300, -mp.mpf(3) ** -21000, mp.mpc(0, -1), Fraction(-7, 3)], 120)
# a real and an mpc component both round once from the working value (2.7447e+13)
@example([ROUNDS_ACROSS_A_DIGIT, mp.make_mpc((ROUNDS_ACROSS_A_DIGIT._mpf_,) * 2)], 5)
def test_encoder_equals_json_dumps_of_the_retired_converter(value, digits):
    # the report's one encoder against json.dumps over the JSON terms that the
    # retired converter built, one mp.nstr of the working value per number
    assert cli._indented_json(value, digits) == json.dumps(json_terms(value, digits), indent=2)


# pairwise coprime p1 < p2 < p3 with D = (p1 - 1)(p2 - 1)(p3 - 1)/4 <= 400
SMALL_D_TRIPLES = [
    (p1, p2, p3)
    for p1 in range(2, 13)
    for p2 in range(p1 + 1, 42)
    for p3 in range(p2 + 1, 1600 // ((p1 - 1) * (p2 - 1)) + 2)
    if math.gcd(p1, p2) == math.gcd(p1, p3) == math.gcd(p2, p3) == 1
]


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(SMALL_D_TRIPLES), st.integers(15, 80), st.sampled_from(("flat", "cs")))
@example((2, 3, 5), 15, "flat")
@example((7, 11, 13), 80, "cs")
def test_hand_laid_records_equal_json_dumps(ps, digits, verb):
    # flat and cs lay out their records by hand; the text must be json's own
    cmd = parse([verb, "--p", ",".join(map(str, ps)), "--precision", str(digits)])
    report, code = execute(cmd)
    assert code == EXIT_OK
    assert render(cmd, report) == json.dumps(report_terms(report), indent=2) + "\n"


def test_text_format_renders():
    cmd = parse(["invariant", "--p", "2,3,5", "--N", "4", "--format", "text"])
    report, _ = execute(cmd)
    text = render(cmd, report)
    assert "status: ok" in text
    assert "tau.re" in text


def test_flat_is_precision_independent():
    # the exact parts of every flat-connection record ignore --precision
    exact_keys = ("ell", "cs", "spectral_flow", "conjugacy_angles")
    records = []
    for digits in ("20", "100"):
        _, code, laid = execute_json(["flat", "--p", "5,7,9", "--precision", digits])
        assert code == EXIT_OK
        records.append([{k: r[k] for k in exact_keys} for r in laid["results"]["flat_connections"]])
    assert records[0] == records[1]
    assert len(records[0]) == 24


def test_torsion_prints_the_value_rounded_once():
    # each torsion_sqrt that flat prints at D digits is the value recomputed
    # at D + 40 digits, rounded once to D: 1730 values, of which rounding first
    # to the bits of D digits and then to D decimals misprints 19
    printed, wanted = [], []
    for ps in [(7, 11, 13), (5, 7, 9), (11, 13, 17), (3, 5, 8), (2, 3, 101)]:
        for digits in (15, 20, 30, 50, 100):
            argv = ["flat", "--p", ",".join(map(str, ps)), "--precision", str(digits)]
            records = execute_json(argv)[2]["results"]["flat_connections"]
            printed += [record["torsion_sqrt"] for record in records]
            reference = flat_connections(BrieskornTriple(*ps), PrecisionContext(digits + 40))
            wanted += [to_str(record.torsion_sqrt._mpf_, digits) for record in reference]
    assert len(printed) == len(wanted) == 1730
    misprinted = [(got, want) for got, want in zip(printed, wanted) if got != want]
    assert not misprinted, misprinted


def test_complex_values_print_the_value_rounded_once():
    # a stated sample: invariant's tau, normalized and z_witten and asymptotic's
    # dominant, tail and exact at N = 5 and 12 (K = 3), each component as the
    # value recomputed at D + 40 digits rounded once to D
    misprinted = []
    for ps in [(2, 3, 5), (2, 3, 7), (7, 11, 13)]:
        p, text = BrieskornTriple(*ps), ",".join(map(str, ps))
        for digits, n in product((15, 30, 50), (5, 12)):
            ctx = PrecisionContext(digits + 40)
            approx = asymptotic_approx(p, n, 3, ctx)
            for verb, flags, fields, reference in (
                ("invariant", [], "tau normalized z_witten", tau_n(p, n, ctx)),
                ("asymptotic", ["--K", "3"], "dominant tail exact", approx),
            ):
                argv = [verb, "--p", text, "--N", str(n), *flags, "--precision", str(digits)]
                results = execute_json(argv)[2]["results"]
                for field in fields.split():
                    z = getattr(reference, field)
                    want = {"re": to_str(z.real._mpf_, digits), "im": to_str(z.imag._mpf_, digits)}
                    if results[field] != want:
                        misprinted.append((argv, field, results[field], want))
    assert not misprinted, misprinted


def test_gamma_spectral_flow_and_phi_move_with_the_dedekind_numerator(monkeypatch):
    # gamma, Casson, phi and the spectral-flow offset read one integer
    # T = 12P sum s(c_k, p_k); patch every module that imported it by name
    real = chi.dedekind_triple_numerator
    p = BrieskornTriple(2, 3, 7)
    before = phi_invariant(p)
    for module in (chi, topology):
        monkeypatch.setattr(module, "dedekind_triple_numerator", lambda p: real(p) + 12)
    report, code, laid = execute_json(["verify", "--suite", "gamma", "--pmax", "1000"])
    assert (code, report.status) == (EXIT_FAIL, "fail")
    assert len(laid["failure"]) == laid["results"]["checks"] > 0
    with pytest.raises(ArithmeticError):
        flat_connections(p)
    assert phi_invariant(p) != before
