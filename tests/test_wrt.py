import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

import brieskorn_wrt.wrt as wrt
from brieskorn_wrt import (
    BrieskornTriple,
    EllTriple,
    admissible_triples,
    asymptotic_approx,
    build_chi,
    casson,
    eichler_limit,
    eichler_tail,
    lambda_coefficients,
    modular_data,
    jeffrey_tau,
    phi_invariant,
    tau_coordinates,
    tau_n,
)
from brieskorn_wrt.chi import dedekind_triple_numerator, enumerate_triples, t_numerator
from brieskorn_wrt.cli import parse
from brieskorn_wrt.exactmath import PrecisionContext
from brieskorn_wrt.modularform import _limit_weights
from conftest import coprime_triples
from oracles import (
    UnimodularMatrix,
    chi_value,
    eichler_tail_term,
    gauss_sum,
    rademacher_phi,
    rozansky_normalized,
    tau_prefactor,
    to_mpf,
)
from test_cli import GOLDEN_STDOUT
from test_modularform import _count_exponentials

P235 = BrieskornTriple(2, 3, 5)
P237 = BrieskornTriple(2, 3, 7)
P345 = BrieskornTriple(3, 4, 5)


def direct_surgery_sum(ps, n_level, ctx):
    """The closed sum evaluated literally from its defining expression,
    with the three parameters in the given (possibly unsorted) order."""
    p1, p2, p3 = ps
    bigp = p1 * p2 * p3
    with ctx.workdps():
        total = mp.mpc(0)
        for n in range(2 * bigp * n_level):
            if n % n_level == 0:
                continue
            numerator = mp.mpc(1)
            for pk in (p1, p2, p3):
                numerator *= mp.expjpi(mp.mpf(n) / (n_level * pk)) - mp.expjpi(
                    -mp.mpf(n) / (n_level * pk)
                )
            denominator = mp.expjpi(mp.mpf(n) / n_level) - mp.expjpi(
                -mp.mpf(n) / n_level
            )
            total += (
                mp.expjpi(-mp.mpf(n) * n / (2 * bigp * n_level)) * numerator / denominator
            )
        return +(
            mp.expjpi(mp.mpf(1) / 4) / (2 * mp.sqrt(2 * mp.mpf(bigp) * n_level)) * total
        )


# ----------------------------------------------------------------- normalized sum


def test_rejects_low_level(ctx50):
    with pytest.raises(ValueError):
        rozansky_normalized(P237, 1, ctx50)
    with pytest.raises(ValueError):
        tau_n(P237, 2, ctx50)


def test_matches_direct_formula(ctx50):
    with ctx50.workdps():
        direct = direct_surgery_sum((2, 3, 7), 4, ctx50)
        packaged = rozansky_normalized(P237, 4, ctx50)
        assert abs(direct - packaged) < ctx50.tolerance


def test_invariant_under_parameter_permutation(ctx50):
    with ctx50.workdps():
        reference = direct_surgery_sum((2, 3, 7), 4, ctx50)
        for perm in ((3, 7, 2), (7, 2, 3), (3, 2, 7)):
            assert abs(direct_surgery_sum(perm, 4, ctx50) - reference) < ctx50.tolerance


def test_reflection_reparameterization(ctx50):
    # substituting n -> 2PN - n term by term reproduces the same sum
    n_level = 4
    bigp = P237.P
    with ctx50.workdps():
        total = mp.mpc(0)
        two_pn = 2 * bigp * n_level
        for n in range(two_pn):
            if n % n_level == 0:
                continue
            m = two_pn - n
            numerator = mp.mpc(1)
            for pk in P237.p:
                numerator *= mp.expjpi(mp.mpf(m) / (n_level * pk)) - mp.expjpi(
                    -mp.mpf(m) / (n_level * pk)
                )
            denominator = mp.expjpi(mp.mpf(m) / n_level) - mp.expjpi(
                -mp.mpf(m) / n_level
            )
            total += (
                mp.expjpi(-mp.mpf(m) * m / (2 * bigp * n_level)) * numerator / denominator
            )
        reflected = +(
            mp.expjpi(mp.mpf(1) / 4) / (2 * mp.sqrt(2 * mp.mpf(bigp) * n_level)) * total
        )
        assert abs(reflected - rozansky_normalized(P237, n_level, ctx50)) < ctx50.tolerance


def test_excluded_multiples_vanish_by_regularization(ctx50):
    # the n = 0 mod N terms, resummed through the odd-periodic limit, are zero
    n_level = 3
    chi = build_chi(P237, EllTriple(1, 1, 1))
    with ctx50.workdps():
        total = mp.mpc(0)
        two_pn = 2 * P237.P * n_level
        for n in range(1, two_pn + 1):
            sign = chi_value(chi, n)
            if not sign:
                continue
            inner = mp.mpc(0)
            for k in range(n_level):
                arg = (Fraction(2 * P237.P, n_level) * (k + Fraction(n, 2 * P237.P)) ** 2) % 2
                inner += mp.expjpi(to_mpf(arg))
            total += sign * n * inner * to_mpf(Fraction(-1, two_pn))
        value = total / gauss_sum(P237.P * n_level, ctx50)
        assert abs(value) < ctx50.tolerance


# ------------------------------------------------------------------ identities


@pytest.mark.parametrize("ps", [(2, 3, 7), (2, 5, 7), (3, 4, 5), (2, 3, 11)])
def test_false_theta_identity_small_levels(ps, ctx50):
    p = BrieskornTriple(*ps)
    with ctx50.workdps():
        for n_level in range(3, 9):
            lhs = rozansky_normalized(p, n_level, ctx50)
            rhs = eichler_limit(p, EllTriple(1, 1, 1), 1, n_level, ctx50) / 2
            assert abs(lhs - rhs) < ctx50.tolerance


def test_poincare_identity_small_levels(ctx50):
    with ctx50.workdps():
        for n_level in range(3, 9):
            result = tau_n(P235, n_level, ctx50)
            front = mp.expjpi(to_mpf(Fraction(2, n_level)))
            lhs = front * (front - 1) * result.tau
            rhs = 1 + mp.expjpi(to_mpf(Fraction(-1, 60 * n_level))) * eichler_limit(
                P235, EllTriple(1, 1, 1), 1, n_level, ctx50
            ) / 2
            assert abs(lhs - rhs) < ctx50.tolerance


def test_tau_prefactor_reconstruction(ctx50):
    result = tau_n(P345, 7, ctx50)
    with ctx50.workdps():
        rebuilt = result.tau * tau_prefactor(P345, 7, ctx50)
        assert abs(rebuilt - result.normalized) < ctx50.tolerance
        assert mp.isfinite(result.tau)
        assert result.term_count == 4 * 7


def test_poincare_prefactor_exponent():
    # phi/4 - 1/2 = 121/120 drives the quoted left-hand normalization
    assert phi_invariant(P235) / 4 - Fraction(1, 2) == Fraction(121, 120)


def test_dual_route_tau(ctx50):
    # surgery sum and false-theta finite sum give the same tau
    result = tau_n(P345, 5, ctx50)
    with ctx50.workdps():
        alt_tau = rozansky_normalized(P345, 5, ctx50) / tau_prefactor(P345, 5, ctx50)
        assert abs(result.tau - alt_tau) < ctx50.tolerance


@pytest.mark.parametrize(
    "ps, n_level, digits",
    [
        ((2, 3, 5), 7, 50),
        ((2, 3, 7), 9, 50),
        ((3, 4, 5), 8, 50),
        ((2, 3, 13), 11, 50),
        ((2, 3, 7), 42, 40),  # N = P
        ((2, 3, 5), 30, 40),  # N = P
        ((3, 4, 5), 20, 40),  # N a multiple of p2 and p3
        ((2, 3, 13), 139, 100),
    ],
)
def test_eichler_route_matches_surgery_sum(ps, n_level, digits):
    # the production route (Eichler limit) against the independent O(PN)
    # surgery sum, and the reported count against the non-zero terms of chi
    p = BrieskornTriple(*ps)
    ctx = PrecisionContext(digits)
    result = tau_n(p, n_level, ctx)
    exact = asymptotic_approx(p, n_level, 2, ctx).exact
    surgery = rozansky_normalized(p, n_level, ctx)
    with ctx.workdps():
        assert abs(result.normalized - surgery) < ctx.tolerance
        assert abs(exact - surgery) < ctx.tolerance
    chi = build_chi(p, EllTriple(1, 1, 1))
    assert result.term_count == sum(1 for j in range(p.P * n_level) if chi_value(chi, j))
    assert result.term_count == 4 * n_level


@pytest.mark.parametrize("ps", [(2, 3, 7), (3, 4, 5)])
@pytest.mark.parametrize("n_level", [5, 12])
def test_jeffrey_tau_builds_one_root_table(ps, n_level, monkeypatch, ctx50):
    # every entry of S and every phase of T is an entry of one table of 4N-th roots
    real = wrt.root_table
    orders = []

    def counted(order, bits):
        orders.append(order)
        return real(order, bits)

    monkeypatch.setattr(wrt, "root_table", counted)
    jeffrey_tau(BrieskornTriple(*ps), n_level, ctx50)
    assert orders == [4 * n_level]


JEFFREY_PROBE = [
    (2, 3, 5), (2, 3, 7), (2, 5, 7), (3, 4, 5), (2, 3, 11), (5, 7, 9), (2, 3, 13), (3, 5, 7)
]
JEFFREY_CASES = [(ps, n) for ps in JEFFREY_PROBE for n in range(3, 26)]
JEFFREY_CASES += [(ps, n) for ps in [(7, 11, 13), (2, 3, 101), (11, 13, 17)] for n in (31, 50)]


@pytest.mark.parametrize("ps, n_level", JEFFREY_CASES)
def test_jeffrey_tau_matches_tau_n(ps, n_level):
    # Jeffrey's SL(2, Z) route reads no chi, theta vector or Dedekind sum, yet
    # lands on tau_n's exact coordinates, phase and orientation included
    p, ctx = BrieskornTriple(*ps), PrecisionContext(45)
    jeffrey, tau = jeffrey_tau(p, n_level, ctx), tau_n(p, n_level, ctx).tau
    with ctx.workdps():
        assert abs(jeffrey - tau) < ctx.tolerance, (ps, n_level)


@pytest.mark.parametrize(
    "fibres", [((1, -3), (3, 2), (5, 12)), ((1, -3), (5, 3), (7, 17)), ((1, -3), (4, 3), (7, 16))]
)
def test_seifert_presentations_of_the_three_sphere_give_one(fibres, ctx50):
    # sum_j q_j P/p_j = 1 with a fibre p = 1 presents S^3, whose normalized
    # invariant is exactly 1: this fixes Jeffrey's phase and its conjugate
    for n_level in range(3, 26):
        value = wrt._seifert_tau(fibres, n_level, ctx50)
        with ctx50.workdps():
            assert abs(value - 1) < ctx50.tolerance, (fibres, n_level)


def _ceiling_word(q: int, p: int) -> list:
    word = []
    while p:
        word.append(-(-q // p))
        q, p = p, word[-1] * p - q
    return word


def test_ceiling_words_have_rademacher_phi_sum_a_minus_three_m_minus_one():
    # T^{a_1} S ... T^{a_m} S has first column (q, p), every partial product a
    # positive lower-left entry, and so Phi = sum a - 3(m - 1): Jeffrey's framing
    # phase is a count of S letters
    fibres = 0
    for ps in coprime_triples(1000):
        p = BrieskornTriple(*ps)
        qs = [pow(c, -1, pk) for pk, c in zip(p.p, p.cofactors)]
        qs[0] -= (sum(q * c for q, c in zip(qs, p.cofactors)) - 1) // p.P * p.p1
        assert sum(q * c for q, c in zip(qs, p.cofactors)) == 1
        for pk, q in zip(p.p, qs):
            word, (x, y, z, w) = _ceiling_word(q, pk), (1, 0, 0, 1)
            for a in word:  # times T^a S = [[a, -1], [1, 0]]
                x, y, z, w = a * x + y, -x, a * z + w, -z
                assert z > 0, (ps, pk, q)
            assert (x, z) == (q, pk), (ps, pk, q)
            phi = rademacher_phi(UnimodularMatrix(x, y, z, w))
            assert phi == sum(word) - 3 * (len(word) - 1), (ps, pk, q)
            fibres += 1
    assert fibres > 1000


def test_jeffrey_tau_rejects_levels_below_three(ctx50):
    for n_level in (1, 2):
        with pytest.raises(ValueError):
            jeffrey_tau(P237, n_level, ctx50)


def test_witten_normalization_quotient(ctx50):
    result = tau_n(P237, 9, ctx50)
    with ctx50.workdps():
        s2s1 = mp.sqrt(mp.mpf(9) / 2) / mp.sinpi(mp.mpf(1) / 9)
        assert abs(result.z_witten - result.tau / s2s1) < ctx50.tolerance


def test_witten_large_level_tracks_flat_connection_sum(ctx50):
    # the stationary-phase form with torsion amplitudes reproduces the
    # quotient invariant up to the perturbative tail
    n_level = 101
    result = tau_n(P237, n_level, ctx50)
    md = modular_data(P237, ctx50)
    base = EllTriple(1, 1, 1)
    phi = phi_invariant(P237)
    with ctx50.workdps():
        dominant = mp.mpc(0)
        for ell in admissible_triples(P237)[0]:
            r = Fraction(t_numerator(P237, ell), 2 * P237.P)
            dominant += (
                mp.sqrt(mp.mpf(2))
                * md.s_value(base, ell)
                * mp.expjpi(to_mpf((-r * n_level) % 2))
            )
        dominant *= (
            mp.mpf(0.5)
            * mp.expjpi(mp.mpf(-0.75))
            * mp.expjpi(to_mpf((-phi * Fraction(1, 2 * n_level)) % 2))
        )
        tail_scale = abs(
            mp.sinpi(mp.mpf(1) / n_level)
            * mp.sqrt(mp.mpf(2) / n_level)
            / tau_prefactor(P237, n_level, ctx50)
        )
        tail = eichler_tail(P237, base, 4)
        terms = (eichler_tail_term(P237, tail, n_level, k, ctx50) for k in range(5))
        tail_mag = abs(sum(terms)) / 2
        assert abs(result.z_witten - dominant) < 2 * tail_mag * tail_scale


# ------------------------------------------------- exact coordinates in Z[zeta_N]

LEVEL_MANIFOLDS = ((2, 3, 5), (2, 3, 7), (3, 4, 5), (2, 3, 11), (2, 5, 7), (2, 3, 13))


def test_rotation_identity_on_every_triple_up_to_p_20000():
    # 4P divides t - P + 1 - T, so the T-phase over tau_prefactor is a power of zeta_N
    one = EllTriple(1, 1, 1)
    triples = [BrieskornTriple(*ps) for ps in coprime_triples(20000)]
    assert len(triples) == 24208
    bad = [
        p.p
        for p in triples
        if (t_numerator(p, one) - p.P + 1 - dedekind_triple_numerator(p)) % (4 * p.P)
    ]
    assert not bad, bad


def test_limit_weights_are_multiples_of_2pn():
    # 2PN divides every weight, and the weights over 2PN sum to 0, or to -1 on
    # Sigma(2,3,5), where the Poincare term makes up the difference
    rng = random.Random(20261018)
    triples = [ps for ps in coprime_triples(3000) if ps[0] >= 3]
    thin = [(2, 3, q) for q in range(7, 20000, 2) if q % 3]
    sample = [*LEVEL_MANIFOLDS, (5, 7, 9), *rng.sample(triples, 200), *rng.sample(thin, 187)]
    cases = 0
    for ps in sample:
        p = BrieskornTriple(*ps)
        t = t_numerator(p, EllTriple(1, 1, 1))
        for n in (*range(1, 10), 11, 12, 30, 64, 97, 210):
            weights = _limit_weights(p, EllTriple(1, 1, 1), t, 1, n, 0)
            two_pn = 2 * p.P * n
            assert all(w % two_pn == 0 for w in weights), (ps, n)
            assert sum(weights) == (-two_pn if p.is_poincare else 0), (ps, n)
            cases += 1
    assert cases == 5910


def test_limit_weights_place_each_weight_at_its_shifted_index():
    # _limit_weights(..., s) lays out x^s V(x) mod x^n - 1: V[e] lands at e + s mod n;
    # the levels include divisors of P (n = 30 on Sigma(2,3,5)), the shifts tau_coordinates' own
    cases = 0
    for ps in (*LEVEL_MANIFOLDS, (5, 7, 9)):
        p = BrieskornTriple(*ps)
        one = EllTriple(1, 1, 1)
        own = (t_numerator(p, one) - p.P + 1 - dedekind_triple_numerator(p)) // (4 * p.P)
        for ell in (one, tuple(enumerate_triples(p))[-1]):
            t = t_numerator(p, ell)
            for n in (*range(1, 13), 30, 97):
                for m in (1, -1, 2):
                    if math.gcd(m, n) != 1:
                        continue
                    plain = _limit_weights(p, ell, t, m, n, 0)
                    for s in (0, 1, n - 1, -1, own):
                        laid = _limit_weights(p, ell, t, m, n, s)
                        assert laid == [plain[(k - s) % n] for k in range(n)], (ps, ell, m, n, s)
                        cases += 1
    assert cases == 2450


@pytest.mark.parametrize("ps", LEVEL_MANIFOLDS)
def test_tau_is_the_sum_of_its_coordinates(ps, ctx50):
    # sum_k c_k zeta^k, term by term, against tau_n and the surgery sum
    p = BrieskornTriple(*ps)
    for n_level in (3, 4, 7, 12, 30):
        coordinates = tau_coordinates(p, n_level)
        assert len(coordinates) == n_level - 1
        assert all(isinstance(c, int) for c in coordinates)
        result = tau_n(p, n_level, ctx50)
        with ctx50.workdps():
            zeta = mp.expjpi(mp.mpf(2) / n_level)
            value = sum((c * zeta**k for k, c in enumerate(coordinates)), mp.mpc(0))
            assert abs(value - result.tau) < ctx50.tolerance
            surgery = rozansky_normalized(p, n_level, ctx50) / tau_prefactor(p, n_level, ctx50)
            assert abs(value - surgery) < ctx50.tolerance


def test_tau_coordinates_at_the_least_levels():
    for ps in LEVEL_MANIFOLDS:
        assert tau_coordinates(BrieskornTriple(*ps), 2) == [1]  # tau_2 = 1
        with pytest.raises(ValueError):
            tau_coordinates(BrieskornTriple(*ps), 1)


def test_tau_coordinates_raise_on_each_broken_invariant(monkeypatch):
    # the checks are exceptions: a wrong T, a weight off by one, a sum off by 2PN
    with monkeypatch.context() as patch:
        patch.setattr(wrt, "dedekind_triple_numerator", lambda p: dedekind_triple_numerator(p) + 1)
        with pytest.raises(ArithmeticError, match="4P"):
            tau_coordinates(P237, 11)

    def shifted(amount):
        def weights(p, ell, t, m, n, shift):
            values = _limit_weights(p, ell, t, m, n, shift)
            values[1] += amount(p, n)
            return values

        return weights

    monkeypatch.setattr(wrt, "_limit_weights", shifted(lambda p, n: 1))
    with pytest.raises(ArithmeticError, match="2PN"):
        tau_coordinates(P237, 11)
    monkeypatch.setattr(wrt, "_limit_weights", shifted(lambda p, n: 2 * p.P * n))
    for p in (P235, P237):
        with pytest.raises(ArithmeticError, match="f\\(1\\)"):
            tau_coordinates(p, 11)


@pytest.mark.parametrize("ps", [(2, 3, 5), (2, 3, 7), (2, 5, 7), (3, 4, 5), (5, 7, 9)])
def test_coordinates_meet_the_ohtsuki_series_mod_n(ps):
    # for prime N, Z[zeta]/(N) = (Z/N)[u]/(u^(N-1)) with zeta = 1 + u, and tau_N is
    # sum_j lambda_j u^j there: sum_k c_k C(k, j) = lambda_j (mod N) for every j <= N - 2
    p = BrieskornTriple(*ps)
    for n_level in (11, 13, 17, 23, 29, 31):
        coordinates = tau_coordinates(p, n_level)
        series = lambda_coefficients(p, n_level - 2)
        assert series.all_integer
        for j, lam in enumerate(series.lambdas):
            total = sum(c * math.comb(k, j) for k, c in enumerate(coordinates))
            assert (total - lam) % n_level == 0, (ps, n_level, j)
        assert (series.lambdas[1] - 6 * casson(p)) % n_level == 0, (ps, n_level)


def test_tau_n_takes_one_exponential(monkeypatch, ctx50):
    # every root is a power of e^{pi i/2PN}; sqrt(2/N) is an integer square root
    calls = _count_exponentials(monkeypatch)
    for ps in ((2, 3, 5), (2, 3, 7)):
        for n_level in (3, 5, 1000, 20000):
            calls.clear()
            tau_n(BrieskornTriple(*ps), n_level, ctx50)
            assert calls == ["_unit_root"], (ps, n_level, calls)


def _reference(p, n_level, ctx):
    # Theorem 5.1 through the Eichler limit, as tau_n took it before the coordinates:
    # normalized = half the (1, 1, 1) limit at 1/N, plus e^{pi i/60N} on Sigma(2,3,5)
    with ctx.workdps():
        normalized = eichler_limit(p, EllTriple(1, 1, 1), 1, n_level, ctx) / 2
        if p.is_poincare:
            normalized += mp.expjpi(mp.mpf(1) / (60 * n_level))
        tau = normalized / tau_prefactor(p, n_level, ctx)
        z = tau * mp.sinpi(mp.mpf(1) / n_level) * mp.sqrt(mp.mpf(2) / n_level)
        return {"normalized": normalized, "tau": tau, "z_witten": z}


@pytest.mark.parametrize("ps", LEVEL_MANIFOLDS)
@pytest.mark.parametrize("digits", (30, 50))
def test_tau_n_within_stated_bound(ps, digits):
    # each value within (1 + |value|) 2^-prec of a reference 30 digits higher
    p = BrieskornTriple(*ps)
    ctx = PrecisionContext(digits)
    for n_level in (*range(3, 13), 100, 139, 1009, 10**5):
        if digits == 50 and n_level == 10**5:
            continue
        result = tau_n(p, n_level, ctx)
        reference = _reference(p, n_level, PrecisionContext(digits + 30))
        with ctx.workdps():
            u = mp.mpf(2) ** -mp.prec
        with mp.workdps(digits + 45):
            for name, exact in reference.items():
                error = abs(getattr(result, name) - exact)
                assert error <= (1 + abs(exact)) * u * (1 + mp.mpf(2) ** -20), (ps, n_level, name)


BUDGET_CASES = (
    ((2, 3, 5), 10**4, 30),
    ((2, 3, 7), 10**5, 30),
    *(
        (cmd.p, cmd.n_level, cmd.precision)
        for cmd in map(parse, map(list, GOLDEN_STDOUT))
        if cmd.verb == "invariant"
    ),
    *((ps, n_level, 30) for ps in LEVEL_MANIFOLDS for n_level in (3, 5, 12)),
)


@pytest.mark.parametrize("ps, n_level, digits", BUDGET_CASES)
def test_error_budget_is_the_bound_tau_n_proves(ps, n_level, digits):
    # error_budget = (1 + 2C) 2^-prec, C = sum_k |c_k|, is at least the per-value
    # bound (1 + |value|) 2^-prec of normalized, tau and z_witten; a budget counted
    # from the 4N terms undercuts it on (2,3,5) at N = 10^4 and (2,3,7) at N = 10^5
    p = BrieskornTriple(*ps)
    ctx = PrecisionContext(digits)
    result = tau_n(p, n_level, ctx)
    total = sum(map(abs, tau_coordinates(p, n_level)))
    with ctx.workdps():
        assert result.error_budget == mp.ldexp(mp.mpf(2 * total + 1), -mp.prec)
        largest = max(abs(result.normalized), abs(result.tau), abs(result.z_witten))
        assert result.error_budget >= mp.ldexp(1 + largest, -mp.prec)


# ------------------------------------------------------------------ asymptotics


def test_asymptotic_validation(ctx50):
    with pytest.raises(ValueError):
        asymptotic_approx(P235, 10, -1, ctx50)


def test_asymptotic_approx_takes_one_poincare_phase(monkeypatch, ctx50):
    # warm, the expansion takes no exponential and the limit one root; tail and
    # exact share one e^{pi i/60N}, taken on Sigma(2,3,5) alone
    cases = {(2, 3, 5): ["_unit_root", "expjpi"], (2, 3, 7): ["_unit_root"]}
    for ps in cases:
        asymptotic_approx(BrieskornTriple(*ps), 64, 3, ctx50)
    calls = _count_exponentials(monkeypatch)
    for ps, want in cases.items():
        for n_level in (3, 64, 1000):
            calls.clear()
            asymptotic_approx(BrieskornTriple(*ps), n_level, 3, ctx50)
            assert calls == want, (ps, n_level, calls)


@pytest.mark.parametrize("ps", ((2, 3, 5), (2, 3, 7), (5, 7, 9), (7, 11, 13)))
def test_asymptotic_abs_error_is_the_residual_of_its_parts(ps):
    # off the Poincare sphere abs_error is the expansion's residual halved;
    # on it the residual is taken after the shift.  At N = 5000 the residual
    # sits at the working floor, where the two would print different digits
    p = BrieskornTriple(*ps)
    for digits, n_level, k_max in ((15, 5000, 20), (30, 6, 3), (50, 5000, 80)):
        ctx = PrecisionContext(digits)
        approx = asymptotic_approx(p, n_level, k_max, ctx)
        with ctx.workdps():
            residual = +abs(approx.exact - approx.dominant - approx.tail)
        assert approx.abs_error == residual, (digits, n_level, k_max)


def test_asymptotic_error_below_last_term(ctx50):
    approx = asymptotic_approx(P235, 200, 5, ctx50)
    with ctx50.workdps():
        tail = eichler_tail(P235, EllTriple(1, 1, 1), 5)
        last = abs(eichler_tail_term(P235, tail, 200, 5, ctx50)) / 2
        assert approx.abs_error < last


def test_asymptotic_dominant_amplitudes_235(ctx50):
    # amplitudes (2/sqrt5) sin(pi/5), (2/sqrt5) sin(2pi/5); phases from the
    # exponents 1/60 and 49/60
    md = modular_data(P235, ctx50)
    base = EllTriple(1, 1, 1)
    with ctx50.workdps():
        tol = ctx50.tolerance
        s1 = md.s_value(base, EllTriple(1, 1, 1))
        s2 = md.s_value(base, EllTriple(1, 1, 2))
        assert abs(s1 - 2 / mp.sqrt(5) * mp.sinpi(mp.mpf(1) / 5)) < tol
        assert abs(s2 - 2 / mp.sqrt(5) * mp.sinpi(mp.mpf(2) / 5)) < tol
        assert Fraction(t_numerator(P235, EllTriple(1, 1, 1)), 2 * P235.P) == Fraction(1, 60)
        assert Fraction(t_numerator(P235, EllTriple(1, 1, 2)), 2 * P235.P) == Fraction(49, 60)
        n_level = 40
        approx = asymptotic_approx(P235, n_level, 3, ctx50)
        manual = mp.sqrt(mp.mpf(n_level)) * mp.expjpi(mp.mpf(-0.25)) * (
            s1 * mp.expjpi(to_mpf((Fraction(-1, 60) * n_level) % 2))
            + s2 * mp.expjpi(to_mpf((Fraction(-49, 60) * n_level) % 2))
        )
        assert abs(approx.dominant - manual) < tol


def test_asymptotic_error_scaling(ctx50):
    for p in (P235, P237):
        errors = {
            n: asymptotic_approx(p, n, 2, ctx50).abs_error for n in (64, 128, 256)
        }
        with ctx50.workdps():
            for a, b in ((64, 128), (128, 256)):
                ratio = errors[a] / errors[b]
                assert 4 < ratio < 16
