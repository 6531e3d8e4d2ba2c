"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Tolerances are pinned here, not configurable.
"""

import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

from brieskorn_wrt import (
    BrieskornTriple,
    EllTriple,
    PrecisionContext,
    admissible_triples,
    asymptotic_approx,
    build_chi,
    casson,
    eichler_limit,
    eichler_tail,
    enumerate_triples,
    flat_connections,
    gamma_closed_form,
    lambda_coefficients,
    modular_data,
    mordell_count,
    rozansky_normalized,
    t_exponent,
    theta_eval,
    verify_s_torsion,
)
from brieskorn_wrt.chi import l_value_ratios
from brieskorn_wrt.exactmath import to_mpf
from conftest import coprime_triples
from oracles import (
    eichler_tail_term,
    ell_condition,
    execute_json,
    gauss_reciprocity_sides,
    gauss_sum,
    lambda_horner,
    lambda_stirling,
)
from test_chi import l_values_from_hyperbolic_quotient

CTX = PrecisionContext(50)
TOL = mp.mpf("1e-30")


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def test_criterion_01_reference_table_exact():
    report, _, laid = execute_json(["verify", "--suite", "table1"])
    checks, failure = laid["results"]["checks"], laid.get("failure", [])
    ok = report.status == "ok" and not failure and checks == 234
    _report(1, ok, f"reference table {checks} cells, mismatches={len(failure)}")


def test_criterion_02_surgery_sum_equals_false_theta_limit():
    worst = mp.mpf(0)
    with CTX.workdps():
        for ps in [(2, 3, 7), (3, 4, 5), (2, 5, 7), (2, 3, 11)]:
            p = BrieskornTriple(*ps)
            for n in range(3, 26):
                lhs = rozansky_normalized(p, n, CTX)
                rhs = eichler_limit(p, EllTriple(1, 1, 1), 1, n, CTX) / 2
                worst = max(worst, abs(lhs - rhs))
        poincare = BrieskornTriple(2, 3, 5)
        for n in range(3, 26):
            lhs = rozansky_normalized(poincare, n, CTX)
            rhs = mp.expjpi(to_mpf(Fraction(1, 60 * n))) + eichler_limit(
                poincare, EllTriple(1, 1, 1), 1, n, CTX
            ) / 2
            worst = max(worst, abs(lhs - rhs))
        _report(2, worst < TOL, f"identity worst residual {mp.nstr(worst, 3)} < 1e-30")


def test_criterion_03_modular_transformations():
    worst = mp.mpf(0)
    with CTX.workdps():
        taus = [mp.mpc(0, 1), (1 + 2 * mp.mpc(0, 1)) / 3, mp.mpc(0, 1) / 5]
        for ps in [(2, 3, 5), (2, 3, 7), (3, 4, 5)]:
            p = BrieskornTriple(*ps)
            md = modular_data(p, CTX)
            for tau in taus:
                transformed = {
                    ell: theta_eval(p, ell, -1 / tau, CTX) for ell in md.triples
                }
                front = (mp.mpc(0, 1) / tau) ** mp.mpf(1.5)
                for ell in md.triples:
                    value = theta_eval(p, ell, tau, CTX)
                    s_rhs = front * sum(
                        md.s_row(ell)[j] * transformed[ellp]
                        for j, ellp in enumerate(md.triples)
                    )
                    t_lhs = theta_eval(p, ell, tau + 1, CTX)
                    t_rhs = mp.expjpi(to_mpf(t_exponent(p, ell))) * value
                    worst = max(worst, abs(value - s_rhs), abs(t_lhs - t_rhs))
        _report(3, worst < TOL, f"S/T transformation worst residual {mp.nstr(worst, 3)} < 1e-30")


def _weighted_sum_direct(p: BrieskornTriple, ell: EllTriple) -> int:
    # independent of the package's chi construction: place the eight signed
    # residues by hand and add them up
    two_p = 2 * p.P
    total = 0
    for e1 in (1, -1):
        for e2 in (1, -1):
            for e3 in (1, -1):
                residue = (
                    p.P
                    + e1 * ell.l1 * p.cofactors[0]
                    + e2 * ell.l2 * p.cofactors[1]
                    + e3 * ell.l3 * p.cofactors[2]
                ) % two_p
                total += -e1 * e2 * e3 * residue
    return total


def test_criterion_04_gamma_and_casson_sweep():
    checked = 0
    triples_checked = 0
    ok = True
    for ps in coprime_triples(1000):
        p = BrieskornTriple(*ps)
        admissible, gamma = admissible_triples(p)
        lam = casson(p)
        good = (
            gamma_closed_form(p) == gamma
            and p.D - mordell_count(p) == gamma
            and lam == Fraction(-gamma, 2)
            and lam.denominator == 1
        )
        for ell in enumerate_triples(p):
            w = _weighted_sum_direct(p, ell)
            good = good and w in (0, 4 * p.P)
            good = good and (w == 4 * p.P) == ell_condition(p, ell)
            triples_checked += 1
        ok = ok and good
        checked += 1
    _report(
        4,
        ok and checked > 100,
        f"gamma/Casson consistent on {checked} manifolds (P <= 1000), "
        f"weighted-sum dichotomy on {triples_checked} canonical triples",
    )


def test_criterion_05_cs_spectra_and_spectral_flows():
    expected = {
        (2, 3, 5): ([Fraction(-1, 120), Fraction(-49, 120)], [4, 0]),
        (2, 3, 7): ([Fraction(-25, 168), Fraction(47, 168)], [6, 2]),
        (3, 4, 5): (
            [Fraction(119, 240), Fraction(-49, 240), Fraction(-1, 60), Fraction(11, 60)],
            [2, 4, 6, 0],
        ),
    }
    ok = True
    for ps, (want_cs, want_flow) in expected.items():
        records = flat_connections(BrieskornTriple(*ps), CTX)
        ok = ok and [r.cs for r in records] == want_cs
        ok = ok and [r.spectral_flow for r in records] == want_flow
    _report(5, ok, "CS spectra and spectral flows match quoted sets exactly")


def test_criterion_06_s_matrix_torsion_identity():
    worst = mp.mpf(0)
    with CTX.workdps():
        for ps in [(2, 3, 5), (2, 3, 7), (3, 4, 5)]:
            worst = max(worst, verify_s_torsion(BrieskornTriple(*ps), CTX))
        _report(6, worst < TOL, f"sqrt(2) S vs torsion/flow worst residual {mp.nstr(worst, 3)} < 1e-30")


def test_criterion_07_l_function_dual_computation():
    ok = True
    for ps in [(2, 3, 5), (2, 3, 7), (3, 4, 5)]:
        p = BrieskornTriple(*ps)
        chi = build_chi(p, EllTriple(1, 1, 1))
        oracle = l_values_from_hyperbolic_quotient(ps, 8)
        ok = ok and [Fraction(*r) for r in l_value_ratios(chi, range(9))] == oracle
    _report(7, ok, "Bernoulli-sum L-values equal generating-function Taylor coefficients, k <= 8")


def test_criterion_08_perturbative_series_consistency():
    ok = True
    for ps in [(2, 3, 5), (2, 3, 7), (3, 4, 5), (2, 5, 7), (2, 3, 11)]:
        p = BrieskornTriple(*ps)
        lambdas = lambda_coefficients(p, 8).lambdas
        ok = ok and lambdas == lambda_stirling(p, 8).lambdas == lambda_horner(p, 8).lambdas
    _report(8, ok, "Stirling sum equals the tail re-expansion through order 8 on five manifolds")


def test_criterion_09_asymptotic_quality():
    ok = True
    detail = []
    with CTX.workdps():
        for ps in [(2, 3, 5), (2, 3, 7)]:
            p = BrieskornTriple(*ps)
            errors = {
                n: asymptotic_approx(p, n, 2, CTX).abs_error for n in (64, 128, 256)
            }
            for a, b in ((64, 128), (128, 256)):
                ratio = errors[a] / errors[b]
                ok = ok and 4 < ratio < 16
                detail.append(f"{ps} {a}->{b}: x{mp.nstr(ratio, 3)}")
            at200 = asymptotic_approx(p, 200, 2, CTX)
            tail = eichler_tail(p, EllTriple(1, 1, 1), 2)
            last_term = abs(eichler_tail_term(p, tail, 200, 2, CTX)) / 2
            ok = ok and at200.abs_error < last_term
        _report(9, ok, "error halves ~8x per doubling and sits below the last kept term; " + "; ".join(detail))


def test_criterion_10_gauss_machinery():
    worst_closed = mp.mpf(0)
    worst_recip = mp.mpf(0)
    with CTX.workdps():
        target = mp.expjpi(mp.mpf(-0.25))
        for n in range(1, 51):
            residual = abs(gauss_sum(n, CTX) - mp.sqrt(2 * mp.mpf(n)) * target)
            worst_closed = max(worst_closed, residual)
        rng = random.Random(20260808)
        produced = 0
        while produced < 50:
            n = rng.randint(1, 30)
            candidates = [m for m in range(-30, 31) if m and (n * m) % 2 == 0]
            m = rng.choice(candidates)
            k = Fraction(rng.randint(-3 * n, 3 * n), n)
            left, right = gauss_reciprocity_sides(n, m, k, CTX)
            worst_recip = max(worst_recip, abs(left - right))
            produced += 1
        ok = worst_closed < TOL and worst_recip < TOL
        _report(
            10,
            ok,
            f"closed form residual {mp.nstr(worst_closed, 3)}, reciprocity residual {mp.nstr(worst_recip, 3)}",
        )
