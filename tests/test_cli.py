import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
import re
import stat
import threading
from fractions import Fraction
from itertools import chain
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

import brieskorn_wrt.chi as chi
import brieskorn_wrt.cli as cli
import brieskorn_wrt.modularform as modularform
import brieskorn_wrt.topology as topology
from brieskorn_wrt import (
    BrieskornTriple,
    EllTriple,
    admissible_triples,
    build_chi,
    chern_simons,
    enumerate_triples,
    flat_connections,
    phi_invariant,
    spectral_flow,
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
    _build_parser,
    execute,
    main,
    parse,
    render,
)
from brieskorn_wrt.ohtsuki import TABLE_ENV_VAR, table1_path


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
    # lambda_n costs O(order^3), theorem51 runs the surgery sum at every
    # level up to --nmax and gamma checks every sphere with P <= --pmax, so
    # all four are capped from above
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
        reports[verb] = cmd, report, json.dumps(cli._report_dict(report), indent=2) + "\n"
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    def never(*args, **kwargs):
        raise AssertionError("render ran json's pure-Python encoder")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(json.encoder, "_make_iterencode", never)
    _build_parser.cache_clear()
    try:
        for verb, (argv, expected) in MINIMAL.items():
            assert parse(argv) == expected, verb
            full = parse([*argv, *PLAIN_EXTRA, *VERB_EXTRA.get(verb, [])])
            assert (full.precision, full.fmt, full.out) == (30, "json", "r.json"), verb
        for verb, (cmd, report, reference) in reports.items():
            assert render(cmd, report) == reference, verb
        assert built == []
        assert parse(["cs", "--p=2,3,7"]) == Command(verb="cs", p=(2, 3, 7))
        assert parse(["flat", "--prec", "20", "--p", "2,3,5"]).precision == 20
        with pytest.raises(SystemExit) as excinfo:  # a value with "-" goes to argparse
            parse(["asymptotic", "--p", "3,4,5", "--N", "12", "--K", "-1"])
        assert excinfo.value.code == EXIT_USAGE
        assert capsys.readouterr().err == "error: --K must be between 0 and 100\n"
        assert len(built) == 1 + len(VERBS)  # argparse's tree, built once
        with pytest.raises(AssertionError, match="pure-Python"):
            json.dumps({}, indent=2)
    finally:
        _build_parser.cache_clear()


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
    ("--help",): "233e38cfa8a3cc2304f700676f9b15bc6cd287e6501f380b2a9d0091aea76ebb",
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
    report, code = execute(parse(["cs", "--p", "3,4,5"]))
    assert code == EXIT_OK
    assert report.status == "ok"
    spectrum = report.results["cs_spectrum"]
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
    expected = [{"ell": list(r.triple.ell), "cs": cli.rational_json(r.cs)} for r in records]
    rows = [",".join(map(str, (*r.triple.ell, r.cs.numerator, r.cs.denominator))) for r in records]

    def never(*args):
        raise AssertionError("cs must not build flat-connection records")

    monkeypatch.setattr(cli, "flat_connections", never)
    for fmt in ("json", "csv"):
        cmd = parse(["cs", "--p", "7,11,13", "--format", fmt])
        report, code = execute(cmd)
        assert (code, report.status) == (EXIT_OK, "ok")
        assert report.results["cs_spectrum"] == expected
    assert render(cmd, report) == "\n".join(["ell1,ell2,ell3,cs_num,cs_den", *rows]) + "\n"


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
    assert payload["metadata"]["route"] == "eichler_limit"


def test_flat_records_json():
    report, code = execute(parse(["flat", "--p", "2,3,5"]))
    records = report.results["flat_connections"]
    assert [r["spectral_flow"] for r in records] == [4, 0]
    assert all(set(r) >= {"ell", "cs", "torsion_sqrt", "conjugacy_angles"} for r in records)


def test_asymptotic_reports_error():
    report, code = execute(parse(["asymptotic", "--p", "2,3,5", "--N", "64", "--K", "2"]))
    assert code == EXIT_OK
    assert float(report.results["abs_error"]) < 0.05
    assert report.metadata["route"] == "eichler_limit"


def test_verify_gamma_small():
    report, code = execute(parse(["verify", "--suite", "gamma", "--pmax", "200"]))
    assert code == EXIT_OK
    assert report.status == "ok"
    assert report.results["checks"] > 10


def test_verify_gamma_pmax_2000_keeps_caches_bounded():
    report, code = execute(parse(["verify", "--suite", "gamma", "--pmax", "2000"]))
    assert code == EXIT_OK
    assert report.status == "ok"
    assert report.results["checks"] == 1113
    # the suite counts gamma without filling either cache; both stay bounded
    for cached in (enumerate_triples, build_chi):
        info = cached.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize


def test_verify_gamma_never_enumerates_the_lattice():
    # gamma is counted run by run; enumerate_triples is neither hit nor missed
    before = enumerate_triples.cache_info()
    report, code = execute(parse(["verify", "--suite", "gamma", "--pmax", "500"]))
    assert (report.status, code) == ("ok", EXIT_OK)
    assert enumerate_triples.cache_info() == before


def test_verify_theorem51_trimmed():
    report, code = execute(
        parse(["verify", "--suite", "theorem51", "--nmax", "4", "--pmax", "100"])
    )
    assert code == EXIT_OK
    assert report.results["checks"] > 0


def test_verify_torsion_and_modular_and_table():
    for suite in ("torsion", "modular", "table1"):
        report, code = execute(parse(["verify", "--suite", suite]))
        assert code == EXIT_OK, suite
        assert report.status == "ok"
        if suite == "torsion":  # one S-torsion residual per manifold, up to D = 180
            assert report.results["checks"] == 6


def _suite_failures(suite: str) -> list:
    return execute(parse(["verify", "--suite", suite]))[0].failure


def _mantissa_digits(text: str) -> int:
    return len(text.lstrip("-").partition("e")[0].replace(".", "").lstrip("0"))


def test_encodings_pin_digit_counts_and_failure_field_types(monkeypatch, tmp_path):
    # execute encodes every library value one way; error_budget, residual, abs_error
    # and the modular tau keep the digit counts their runners fix
    invariant = execute(parse(["invariant", "--p", "2,3,7", "--N", "5"]))[0].results
    asymptotic = execute(parse(["asymptotic", "--p", "2,3,5", "--N", "64", "--K", "2"]))[0].results
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
        report, code = execute(parse(["verify", "--suite", suite, *argv.get(suite, [])]))
        assert (code, report.status) == (EXIT_FAIL, "fail"), suite
        failures[suite] = report.failure
        assert all(isinstance(f["p"], list) for f in report.failure), suite
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
    lines = []
    with open(table1_path(), "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("3 4 5"):
                line = line.replace("198", "199", 1)
            lines.append(line)
    corrupted = tmp_path / "table1.txt"
    corrupted.write_text("".join(lines))
    monkeypatch.setenv(TABLE_ENV_VAR, str(corrupted))
    report, code = execute(parse(["verify", "--suite", "table1"]))
    assert code == EXIT_FAIL
    assert report.status == "fail"
    assert len(report.failure) == 1


def test_verify_without_checks_fails(monkeypatch, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    monkeypatch.setenv(TABLE_ENV_VAR, str(empty))
    report, code = execute(parse(["verify", "--suite", "table1"]))
    assert report.results["checks"] == 0
    assert code == EXIT_FAIL
    assert report.status == "fail"
    assert len(report.failure) == 1


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
    report, code = execute(parse(["verify", "--suite", "gamma", "--pmax", "30"]))
    assert (report.results["checks"], code) == (1, EXIT_OK)
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
    lines = []
    with open(table1_path(), "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("3 4 5"):
                line = line.replace("198", "199", 1)
            lines.append(line)
    corrupted = tmp_path / "table1.txt"
    corrupted.write_text("".join(lines))
    monkeypatch.setenv(TABLE_ENV_VAR, str(corrupted))
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
    cmd = parse(["invariant", "--p", "2,3,7", "--N", "7"])
    first, _ = execute(cmd)
    second, _ = execute(cmd)
    first_meta = {k: v for k, v in first.metadata.items() if k != "wall_time_seconds"}
    second_meta = {k: v for k, v in second.metadata.items() if k != "wall_time_seconds"}
    assert first.results == second.results
    assert first.command == second.command
    assert first_meta == second_meta


# sha256 of stdout less its wall_time_seconds line; a change to any printed
# digit, field or layout fails here
GOLDEN_STDOUT = {
    ("invariant", "--p", "2,3,7", "--N", "100", "--precision", "50"): (
        "33eac9bf88eeb396782f5deb9504dc3c7e28a695dd4c8640b8ffb2aad6fdd3e4"
    ),
    ("invariant", "--p", "2,3,7", "--N", "100", "--precision", "100"): (
        "5606b63d32a11a7361f096664b76b70424aa5267af6918d3799c0f6eeb7419b1"
    ),
    ("invariant", "--p", "2,3,5", "--N", "100", "--precision", "30"): (
        "1515a0a50a03cef3ddac9dd7372a74c22de5a73a9c3ffc460e6e8a77a404c0fe"
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
        "ef51c7a5d664e16c5ce958b4267c391de4b65c9d07ffea41e688c928e11ae4c4"
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
        "b2c7ff5aecaf56ae4b3c2ec02c53bcc788555035a3a77ff5a0f52601f7df0134"
    ),
    ("cs", "--p", "7,11,13", "--format", "csv"): (
        "96c1294ad655bee248b667492e4b3e3e8b32a5d2a13e811ba3fc7f7d54278137"
    ),
    ("invariant", "--p", "2,3,7", "--N", "100", "--format", "text"): (
        "5f956bc2c7f3f949fb9d4ff027067a1c60295a79b67616c0b5102e15fba8f5cd"
    ),
}


@pytest.mark.parametrize("argv", GOLDEN_STDOUT, ids=" ".join)
def test_stdout_matches_golden_digest(argv, capsys):
    assert main(list(argv)) == EXIT_OK
    out = re.sub(r".*wall_time_seconds.*\n", "", capsys.readouterr().out)
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


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
    assert cli._indented_json(value) == json.dumps(value, indent=2)


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
        report, code = execute(parse(["flat", "--p", "5,7,9", "--precision", digits]))
        assert code == EXIT_OK
        records.append(
            [{k: r[k] for k in exact_keys} for r in report.results["flat_connections"]]
        )
    assert records[0] == records[1]
    assert len(records[0]) == 24


def test_gamma_spectral_flow_and_phi_move_with_the_dedekind_numerator(monkeypatch):
    # gamma, Casson, phi and the spectral-flow offset read one integer
    # T = 12P sum s(c_k, p_k); patch every module that imported it by name
    real = chi.dedekind_triple_numerator
    p = BrieskornTriple(2, 3, 7)
    ell, before = admissible_triples(p)[0][0], phi_invariant(p)
    for module in (chi, topology):
        monkeypatch.setattr(module, "dedekind_triple_numerator", lambda p: real(p) + 12)
    topology._spectral_flow_tables.cache_clear()
    try:
        report, code = execute(parse(["verify", "--suite", "gamma", "--pmax", "1000"]))
        assert (code, report.status) == (EXIT_FAIL, "fail")
        assert len(report.failure) == report.results["checks"] > 0
        with pytest.raises(ArithmeticError):
            spectral_flow(p, ell)
        assert phi_invariant(p) != before
    finally:
        topology._spectral_flow_tables.cache_clear()
