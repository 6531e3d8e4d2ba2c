import logging
from fractions import Fraction

import pytest

from brieskorn_wrt import (
    BrieskornTriple,
    casson,
    lambda_coefficients,
    load_table1,
    phi_invariant,
)
from brieskorn_wrt import ohtsuki
from brieskorn_wrt.cli import EXIT_FAIL, EXIT_OK
from brieskorn_wrt.ohtsuki import TABLE_ENV_VAR
from conftest import coprime_triples
from oracles import corrupted_table1, execute_json, lambda_horner, lambda_stirling

P235 = BrieskornTriple(2, 3, 5)


# ---------------------------------------------------------------- coefficients


def test_poincare_row_quoted():
    series = lambda_coefficients(P235, 8)
    assert series.lambdas == (
        1,
        -6,
        45,
        -464,
        6224,
        -102816,
        2015237,
        -45679349,
        1175123730,
    )
    assert series.all_integer


def test_345_lambda2():
    assert lambda_coefficients(BrieskornTriple(3, 4, 5), 2).lambdas[2] == 198


def test_lambda0_is_one_everywhere():
    for ps in [(2, 3, 7), (2, 5, 7), (5, 7, 9), (3, 4, 23), (2, 11, 21)]:
        assert lambda_coefficients(BrieskornTriple(*ps), 0).lambdas[0] == 1


def test_lambda1_is_six_casson():
    table_manifolds = [ps for ps, _ in load_table1()]
    extras = [
        ps
        for ps in coprime_triples(2000)
        if ps not in set(table_manifolds)
    ][:20]
    for ps in table_manifolds + extras:
        p = BrieskornTriple(*ps)
        assert lambda_coefficients(p, 1).lambdas[1] == 6 * casson(p)


def _lambda2_closed_form(p: BrieskornTriple) -> Fraction:
    phi = phi_invariant(p)
    s2 = 1 - sum(Fraction(1, pk**2) for pk in p.p)
    s4 = 1 - sum(Fraction(1, pk**4) for pk in p.p)
    return Fraction(1, 12) * (
        (3 * phi**2 + 12 * phi - 4) / 8
        + Fraction(3 * p.P, 4) * (phi + 2) * s2
        + Fraction(p.P**2, 8) * (2 * s4 + 5 * s2**2)
    )


def test_lambda2_closed_form_on_table():
    for ps, values in load_table1():
        p = BrieskornTriple(*ps)
        assert _lambda2_closed_form(p) == values[2]
        assert lambda_coefficients(p, 2).lambdas[2] == values[2]


def test_all_table_rows_integral():
    for ps, _ in load_table1():
        assert lambda_coefficients(BrieskornTriple(*ps), 8).all_integer


def test_non_integer_lambdas_warn_not_raise(caplog):
    # (3,5,14) falls outside the bundled table; whatever the integrality
    # outcome, the call must succeed and only warn
    with caplog.at_level(logging.WARNING, logger="brieskorn_wrt.ohtsuki"):
        series = lambda_coefficients(BrieskornTriple(3, 5, 14), 6)
    assert len(series.lambdas) == 7


# --------------------------------------------------------- series consistency
# lambda_coefficients sums the Stirling form over integer eichler_tail values;
# lambda_stirling is the same closed form in Fractions over Bernoulli-polynomial
# L-values, and lambda_horner re-expands the tail in (q - 1) without Stirling
# numbers at all, so all three must agree exactly.


@pytest.mark.parametrize(
    "ps", [(2, 3, 5), (2, 3, 7), (3, 4, 5), (2, 5, 7), (2, 3, 11)]
)
def test_tau_infinity_residual_exactly_zero(ps):
    p = BrieskornTriple(*ps)
    assert lambda_coefficients(p, 8).lambdas == lambda_stirling(p, 8).lambdas


def test_tau_infinity_low_orders():
    p237 = BrieskornTriple(2, 3, 7)
    assert lambda_coefficients(p237, 0).lambdas == lambda_stirling(p237, 0).lambdas
    assert lambda_coefficients(P235, 6).lambdas == lambda_stirling(P235, 6).lambdas


def test_tail_route_matches_stirling_on_every_small_triple():
    triples = coprime_triples(300)
    assert len(triples) == 63
    for ps in triples:
        p = BrieskornTriple(*ps)
        assert lambda_coefficients(p, 8).lambdas == lambda_stirling(p, 8).lambdas, ps


@pytest.mark.parametrize("ps", [(2, 3, 5), (2, 3, 7), (5, 7, 9), (7, 11, 13)])
def test_integer_series_match_stirling_to_order_24(ps):
    # the J_m and Stirling rows kept as integers over one denominator agree
    # with the Fraction form of the same sum
    p = BrieskornTriple(*ps)
    assert lambda_coefficients(p, 24).lambdas == lambda_stirling(p, 24).lambdas


@pytest.mark.parametrize(
    "ps, order",
    [(ps, 47) for ps in [(2, 3, 5), (2, 3, 7), (5, 7, 9), (7, 11, 13)]]
    + [((2, 3, 5), 100), ((2, 3, 7), 100)],
)
def test_stirling_sum_matches_horner_reexpansion(ps, order):
    # the route-independent check, up to the --order cap; every shorter order
    # must give the same leading coefficients
    p = BrieskornTriple(*ps)
    reference = lambda_horner(p, order).lambdas
    assert lambda_coefficients(p, order).lambdas == reference
    for n in range(order):
        assert lambda_coefficients(p, n).lambdas == reference[: n + 1], n


def test_nonzero_tail_constant_term_raises(monkeypatch):
    real = ohtsuki.eichler_tail

    def perturbed(p, ell, order):
        c0, *rest = real(p, ell, order)
        return (c0 + Fraction(1, 7), *rest)

    monkeypatch.setattr(ohtsuki, "eichler_tail", perturbed)
    with pytest.raises(ArithmeticError, match="constant term"):
        lambda_coefficients(BrieskornTriple(2, 3, 7), 3)


def test_non_integer_lambdas_are_logged(monkeypatch, caplog):
    # the warning branch, which alone imports logging, reached by a tail whose
    # c_1 is moved off its value: every lambda_n from n = 0 on turns fractional
    real = ohtsuki.eichler_tail

    def perturbed(p, ell, order):
        c0, c1, *rest = real(p, ell, order)
        return (c0, c1 + Fraction(1, 7), *rest)

    monkeypatch.setattr(ohtsuki, "eichler_tail", perturbed)
    with caplog.at_level(logging.WARNING, logger="brieskorn_wrt.ohtsuki"):
        series = lambda_coefficients(BrieskornTriple(2, 3, 7), 2)
    assert not series.all_integer
    [record] = caplog.records
    assert record.name == "brieskorn_wrt.ohtsuki"
    assert record.getMessage().startswith("non-integer lambda_n for Sigma(2,3,7) at orders [0")


# -------------------------------------------------------------- golden table


def _verify_table1():
    return execute_json(["verify", "--suite", "table1"])


def test_reference_table_reproduces():
    report, code, laid = _verify_table1()
    assert (code, report.status, laid.get("failure")) == (EXIT_OK, "ok", None)
    assert len(load_table1()) == 26
    assert laid["results"]["checks"] == 26 * 9


def test_reference_table_big_cell():
    rows = dict(load_table1())
    assert rows[(2, 11, 21)][8] == 3962937841176563555


def test_corrupted_cell_reports_single_mismatch(tmp_path, monkeypatch):
    monkeypatch.setenv(TABLE_ENV_VAR, str(corrupted_table1(tmp_path, "2 3 7", "69", "70")))
    report, code, laid = _verify_table1()
    assert (code, report.status) == (EXIT_FAIL, "fail")
    assert laid["failure"] == [
        {"p": [2, 3, 7], "order": 2, "expected": "70", "got": {"num": "69", "den": "1"}}
    ]


def test_env_var_controls_table_path(monkeypatch, tmp_path):
    alt = tmp_path / "alt.txt"
    alt.write_text("2 3 5 : 1 -6 45 -464 6224 -102816 2015237 -45679349 1175123730\n")
    monkeypatch.setenv(TABLE_ENV_VAR, str(alt))
    report, code, laid = _verify_table1()
    assert (code, report.status, laid.get("failure")) == (EXIT_OK, "ok", None)
    assert len(load_table1()) == 1
    assert laid["results"]["checks"] == 9


def test_malformed_table_rejected(monkeypatch, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 3 : 1 2 3\n")
    monkeypatch.setenv(TABLE_ENV_VAR, str(bad))
    with pytest.raises(ValueError):
        load_table1()
