import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

import brieskorn_wrt.exactmath as exactmath
import brieskorn_wrt.modularform as modularform
from brieskorn_wrt import (
    BrieskornTriple,
    EllTriple,
    PrecisionContext,
    eichler_limit,
    flat_connections,
    modular_data,
    nearly_modular_expansion,
    rozansky_normalized,
)
from brieskorn_wrt.exactmath import (
    _even_bernoulli_table,
    even_bernoulli_numbers,
    root_power_sum,
    root_table,
    rounded_ratio,
)
from oracles import (
    UnimodularMatrix,
    bernoulli_polynomial,
    bernoulli_recurrence,
    dedekind_sum,
    dedekind_sum_cotangent,
    egcd,
    eichler_limit_per_term,
    erfc,
    gauss_reciprocity_sides,
    gauss_sum,
    rademacher_phi,
    root_table_per_entry,
    sawtooth,
    solve_seifert_q,
    stirling_first,
    unit_root_expjpi,
)
from test_modularform import _count_exponentials


# ---------------------------------------------------------------------- sawtooth


def test_sawtooth_integers_vanish():
    assert sawtooth(3) == 0
    assert sawtooth(Fraction(-7)) == 0


def test_sawtooth_half_and_third():
    assert sawtooth(Fraction(1, 2)) == 0
    assert sawtooth(Fraction(1, 3)) == Fraction(-1, 6)


@given(st.fractions(max_denominator=1000))
def test_sawtooth_is_odd_and_periodic(x):
    assert sawtooth(x + 1) == sawtooth(x)
    assert sawtooth(-x) == -sawtooth(x)


# ------------------------------------------------------------------- dedekind sum


def dedekind_sum_sawtooth(b, a):
    """Oracle: the defining O(|a|) sum sign(a) * sum_k ((k/|a|))((kb/|a|))."""
    n = abs(a)
    total = sum(
        (sawtooth(Fraction(k, n)) * sawtooth(Fraction(k * b, n)) for k in range(1, n)),
        Fraction(0),
    )
    return total if a > 0 else -total


@settings(max_examples=300, deadline=None)
@given(st.integers(-2000, 2000), st.integers(-400, 400).filter(bool))
@example(0, 7)
@example(5, -1)
@example(-9, 1)
@example(-12, -18)
@example(30, 45)
@example(-25, 35)
def test_dedekind_matches_sawtooth_sum(b, a):
    assert dedekind_sum(b, a) == dedekind_sum_sawtooth(b, a)
    # the integer the reciprocity recursion carries, 12|a| s(b, a)
    assert (12 * abs(a) * dedekind_sum(b, a)).denominator == 1


@given(st.integers(1, 10**12), st.integers(1, 10**12))
def test_dedekind_reciprocity_law(h, k):
    g = math.gcd(h, k)
    h, k = h // g, k // g
    expected = Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4)
    assert dedekind_sum(h, k) + dedekind_sum(k, h) == expected


def test_dedekind_small_values():
    assert dedekind_sum(1, 3) == Fraction(1, 18)
    assert dedekind_sum(-1, 3) == Fraction(-1, 18)
    assert dedekind_sum(7, 1) == 0


def test_dedekind_rejects_zero():
    with pytest.raises(ValueError):
        dedekind_sum(1, 0)


@given(st.integers(-40, 40), st.integers(2, 40))
def test_dedekind_odd_in_first_argument(b, a):
    assert dedekind_sum(-b, a) == -dedekind_sum(b, a)


def test_dedekind_inverse_argument_symmetry():
    # s(b, a) = s(b', a) whenever b b' = 1 mod a
    for a in range(2, 61):
        for b in range(1, a):
            if math.gcd(b, a) != 1:
                continue
            b_inv = pow(b, -1, a)
            if b_inv < b:
                continue
            assert dedekind_sum(b, a) == dedekind_sum(b_inv, a)


def test_dedekind_matches_cotangent_form(ctx50):
    with ctx50.workdps():
        for a in range(2, 40):
            for b in range(1, a):
                if math.gcd(b, a) != 1:
                    continue
                exact = dedekind_sum(b, a)
                numeric = dedekind_sum_cotangent(b, a, ctx50)
                diff = abs(numeric - mp.mpf(exact.numerator) / exact.denominator)
                assert diff < ctx50.tolerance


# ---------------------------------------------------------------- Rademacher Phi


def test_rademacher_examples():
    assert rademacher_phi(UnimodularMatrix(2, 1, 1, 1)) == 3
    assert rademacher_phi(UnimodularMatrix(1, 1, 0, 1)) == 1
    assert rademacher_phi(UnimodularMatrix(-1, -1, 2, 1)) == 0


def test_unimodular_determinant_enforced():
    with pytest.raises(ValueError):
        UnimodularMatrix(2, 1, 2, 1)


def _random_unimodular(rng):
    while True:
        p = rng.randint(-30, 30)
        q = rng.randint(-30, 30)
        if q != 0 and p != 0 and math.gcd(p, q) == 1:
            break
    # solve p*s - q*r = 1
    g, s, neg_r = egcd(p, q)
    if g < 0:
        g, s, neg_r = -g, -s, -neg_r
    assert g == 1
    r = -neg_r
    shift = rng.randint(-5, 5)  # (r, s) -> (r + shift*p, s + shift*q)
    return UnimodularMatrix(p, r + shift * p, q, s + shift * q)


def test_rademacher_s_multiplication_rule():
    # Phi(S U) = Phi(U) - 3 sign(p q) over 200 random determinant-one matrices
    import random

    rng = random.Random(1618)
    checked = 0
    while checked < 200:
        u = _random_unimodular(rng)
        if u.p * u.q == 0:
            continue
        lhs = rademacher_phi(u.left_multiply_s())
        rhs = rademacher_phi(u) - 3 * (1 if u.p * u.q > 0 else -1)
        assert lhs == rhs
        checked += 1


def test_rademacher_branch_equivalence():
    # (p+s)/q - 12 s(p, q) equals (p+s)/q - 12 s(s, q): p s = 1 mod q
    import random

    rng = random.Random(99)
    for _ in range(100):
        u = _random_unimodular(rng)
        if u.q == 0:
            continue
        via_p = Fraction(u.p + u.s, u.q) - 12 * dedekind_sum(u.p, u.q)
        via_s = Fraction(u.p + u.s, u.q) - 12 * dedekind_sum(u.s, u.q)
        assert via_p == via_s == rademacher_phi(u)


# ------------------------------------------------------- Bernoulli and Stirling


def test_bernoulli_polynomial_values():
    assert bernoulli_polynomial(0, Fraction(7, 3)) == 1
    assert bernoulli_polynomial(1, Fraction(2, 5)) == Fraction(-1, 10)
    assert bernoulli_polynomial(3, Fraction(1, 2)) == 0


def test_bernoulli_generating_function():
    # t e^{xt}/(e^t - 1) = sum B_n(x) t^n/n!, checked through t^12 at x = 3/7
    order = 12
    x = Fraction(3, 7)
    # e^{xt} and (e^t - 1)/t as exact truncated series
    exp_x = [x**n / math.factorial(n) for n in range(order + 1)]
    expm1_over_t = [Fraction(1, math.factorial(n + 1)) for n in range(order + 1)]
    # want series W with W * expm1_over_t = exp_x
    w = []
    for n in range(order + 1):
        acc = exp_x[n]
        for j in range(n):
            acc -= w[j] * expm1_over_t[n - j]
        w.append(acc)  # expm1_over_t[0] = 1
    for n in range(order + 1):
        assert w[n] == bernoulli_polynomial(n, x) / math.factorial(n)


def test_stirling_examples():
    assert stirling_first(4, 4) == 1
    assert stirling_first(3, 2) == -3
    assert stirling_first(3, 1) == 2


def test_stirling_out_of_range():
    with pytest.raises(ValueError):
        stirling_first(3, 4)
    with pytest.raises(ValueError):
        stirling_first(3, -1)


@pytest.mark.parametrize("n", range(1, 21))
def test_stirling_polynomial_identity(n):
    # sum_m S_n^(m) x^m = prod_{j<n} (x - j), compared at n+1 sample points
    for i in range(n + 1):
        x = Fraction(2 * i + 1, 3)
        direct = math.prod((x - j) for j in range(n))
        via_coeffs = sum(stirling_first(n, m) * x**m for m in range(n + 1))
        assert direct == via_coeffs


def test_stirling_log_series_identity():
    # (log q)^m / m! = sum_{n>=m} S_n^(m) (q-1)^n / n!, checked through (q-1)^12
    order = 12
    log_u = [Fraction(0)] + [Fraction((-1) ** (j + 1), j) for j in range(1, order + 1)]
    power = [Fraction(1)] + [Fraction(0)] * order
    for m in range(0, 7):
        if m:
            nxt = [Fraction(0)] * (order + 1)
            for i, a in enumerate(power):
                for j, b in enumerate(log_u):
                    if i + j <= order:
                        nxt[i + j] += a * b
            power = nxt
        for n in range(order + 1):
            expected = (
                Fraction(stirling_first(n, m), math.factorial(n))
                if m <= n
                else Fraction(0)
            )
            assert power[n] == expected * math.factorial(m)


# -------------------------------------------------------------------- Gauss sums


def test_gauss_sum_one():
    g = gauss_sum(1)
    assert abs(g - (1 - 1j)) < 1e-45


def test_gauss_sum_closed_form(ctx50):
    with ctx50.workdps():
        target = mp.expjpi(mp.mpf(-0.25))
        for n in range(1, 51):
            residual = abs(gauss_sum(n, ctx50) - mp.sqrt(2 * mp.mpf(n)) * target)
            assert residual < ctx50.tolerance


def test_gauss_reciprocity_example(ctx50):
    left, right = gauss_reciprocity_sides(3, 2, 1, ctx50)
    assert abs(left - right) < ctx50.tolerance


def test_gauss_reciprocity_validation():
    with pytest.raises(ValueError):
        gauss_reciprocity_sides(3, 3, 1)  # n*m odd
    with pytest.raises(ValueError):
        gauss_reciprocity_sides(4, 2, Fraction(1, 3))  # n*k not integral
    with pytest.raises(ValueError):
        gauss_reciprocity_sides(4, 0, 1)


# -------------------------------------------------------------------------- erfc


def test_erfc_endpoints(ctx50):
    assert abs(erfc(0, ctx50) - 1) < ctx50.tolerance
    previous = None
    with ctx50.workdps():
        for x in (1, 2, 4, 8, 16):
            value = erfc(x, ctx50)
            assert value > 0
            if previous is not None:
                assert value < previous
            previous = value
        assert erfc(30, ctx50) < mp.mpf("1e-300")


def test_erfc_against_quadrature(ctx30):
    # independent oracle: 2/sqrt(pi) * integral_x^inf exp(-t^2) dt by quadrature
    with ctx30.workdps():
        for x in (mp.mpf(1), mp.mpf("0.25"), mp.mpf(2)):
            oracle = 2 / mp.sqrt(mp.pi) * mp.quad(lambda t: mp.exp(-t * t), [x, mp.inf])
            assert abs(erfc(x, ctx30) - oracle) < mp.mpf("1e-28")


# ------------------------------------------------------------------- root tables


def _assert_root_table_within_bound(order: int, bits: int, entries) -> None:
    # the docstring bound: every sine of the half row within 2 units of 2^-bits
    sin = root_table(order, bits)
    assert len(sin) == (order + 1) // 2
    reference = root_table_per_entry(order, bits, entries)
    with mp.workprec(bits + 64):
        for e, s in zip(entries, reference):
            assert abs(sin[e] - s) < 2, (order, bits, e)


@pytest.mark.parametrize("order", (*range(1, 9), 100, 139, 4099))
@pytest.mark.parametrize("bits", (64, 226))
def test_root_table_matches_cospi_sinpi_entry_by_entry(order, bits):
    _assert_root_table_within_bound(order, bits, range((order + 1) // 2))


@pytest.mark.parametrize("order", (*range(1, 40), 4099))
def test_root_table_within_bound_at_its_least_precision(order):
    # bits = 2 order.bit_length() + 1, the least that the precondition admits
    _assert_root_table_within_bound(order, 2 * order.bit_length() + 1, range((order + 1) // 2))


@pytest.mark.parametrize("order, bits", [(0, 100), (-4, 100), (4099, 26)])
def test_root_table_rejects_order_or_bits_below_its_bound(order, bits):
    with pytest.raises(ValueError):
        root_table(order, bits)


@pytest.mark.parametrize("order", (10**5, 10**6))
def test_root_table_matches_cospi_sinpi_on_seeded_samples(order):
    # both ends and the quarter turn, then random entries, at the widest giant steps
    half = order // 2
    sample = random.Random(order).sample(range(half), 200)
    entries = sorted({0, 1, order // 4, half - 1, *sample})
    _assert_root_table_within_bound(order, 100, entries)


def _assert_root_power_sum_within_bound(coefficients, order, step, exponents, bits) -> None:
    # the docstring bound: each component within 1 unit of 2^-bits, against
    # one cospi and one sinpi per term at bits + 64 bits and beyond the sum's size
    values = root_power_sum(coefficients, order, step, exponents, bits)
    assert len(values) == 1 + len(exponents)
    size = sum(map(abs, coefficients)) + 1
    with mp.workprec(bits + 64 + size.bit_length()):
        total = mp.mpc(0)
        for k, c in enumerate(coefficients):
            total += c * mp.expjpi(mp.mpf(2 * (step * k % order)) / order)
        exact = [total] + [mp.expjpi(mp.mpf(2 * (e % order)) / order) for e in exponents]
        for (x, y), z in zip(values, exact):
            assert isinstance(x, int) and isinstance(y, int)
            assert abs(x - mp.ldexp(z.real, bits)) <= 1, (order, step, bits, x, z)
            assert abs(y - mp.ldexp(z.imag, bits)) <= 1, (order, step, bits, y, z)


@pytest.mark.parametrize(
    "order, step",
    [(1, 1), (2, 1), (7, 3), (12, 4), (100, 4), (4 * 30 * 139, 120), (4099, 1), (5, 9)],
)
@pytest.mark.parametrize("bits", (1, 64, 226))
def test_root_power_sum_within_bound(order, step, bits):
    rng = random.Random(order * 1000 + step + bits)
    exponents = (0, 1, order - 1, -1, 2 * order + 3, rng.randrange(order))
    for count in (0, 1, 2, 3, 50, 1000):
        coefficients = [rng.randint(-400, 400) for _ in range(count)]
        _assert_root_power_sum_within_bound(coefficients, order, step, exponents, bits)


def test_root_power_sum_with_large_and_cancelling_coefficients():
    # big coefficients widen the guard; an exact cancellation still lands within a unit
    rng = random.Random(7)
    big = [rng.randint(-(10**30), 10**30) for _ in range(300)]
    _assert_root_power_sum_within_bound(big, 4 * 42 * 101, 168, (2 * 42,), 100)
    # 1 + zeta + ... + zeta^(n-1) = 0 for zeta = e^{2 pi i/n}, n > 1
    assert root_power_sum([1] * 101, 4 * 101, 4, (), 80)[0] in {
        (x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)
    }


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 10**7).flatmap(
        lambda order: st.tuples(st.just(order), st.integers(2 * order.bit_length() + 1, 40000))
    )
)
@example((1, 3))
@example((2, 5))
@example((3, 5))
@example((4, 7))
def test_unit_root_is_the_expjpi_route_bit_for_bit(case):
    # mpmath's cos/sin(pi x) kernel on raw tuples gives the integers that
    # mp.expjpi gives under mp.workprec(wide), down to the last bit
    order, wide = case
    assert exactmath._unit_root(order, wide) == unit_root_expjpi(order, wide)


def test_root_power_sum_takes_one_exponential(monkeypatch):
    # one _unit_root, whatever the length, and no call through mpmath's wrapper
    calls = _count_exponentials(monkeypatch)
    for count in (10, 10000):
        calls.clear()
        root_power_sum([1, -2, 3] * count, 4 * 7 * count, 28, (5, 6, 7), 200)
        assert calls == ["_unit_root"], calls


@pytest.mark.parametrize("order, step, bits", [(0, 1, 10), (5, 0, 10), (5, 1, 0), (-3, 1, 10)])
def test_root_power_sum_rejects_non_positive_arguments(order, step, bits):
    with pytest.raises(ValueError):
        root_power_sum([1, 2], order, step, (), bits)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_eichler_limit_at_the_smallest_tables_within_stated_bound(n, ctx50):
    # one to four weights, summed in one block of baby steps; bound as in
    # test_eichler_limit_error_within_stated_bound, per-term sum at 100 digits
    for p in (BrieskornTriple(2, 3, 7), BrieskornTriple(5, 7, 9)):
        for m in (1, -1, 3):
            if math.gcd(m, n) > 1:
                continue
            value = eichler_limit(p, EllTriple(1, 1, 1), m, n, ctx50)
            reference = eichler_limit_per_term(p, EllTriple(1, 1, 1), m, n, PrecisionContext(100))
            with ctx50.workdps():
                bound = (1 + abs(value)) * mp.mpf(2) ** -mp.prec
            with mp.workdps(115):
                assert abs(value - reference) < bound, (p, m, n)


def _cold_modular_data(p, ctx):
    modularform._modular_data_cached.cache_clear()
    return modular_data(p, ctx)


def _nearly_modular_expansion(p, ctx):
    modularform._modular_data_cached.cache_clear()
    return nearly_modular_expansion(p, EllTriple(1, 1, 1), 5, 2, ctx)


THIN = (BrieskornTriple(2, 3, 1009), BrieskornTriple(2, 3, 10007))
ROOT_TABLE_SITES = {
    "eichler_limit": (
        lambda n, ctx: eichler_limit(BrieskornTriple(2, 3, 7), EllTriple(1, 1, 1), 1, n, ctx),
        (2000, 20000),
    ),
    "modular_data": (_cold_modular_data, THIN),
    "flat_connections": (flat_connections, THIN),  # its torsion rows, one per fibre
    "nearly_modular_expansion": (_nearly_modular_expansion, THIN),
    "rozansky_normalized": (lambda p, ctx: rozansky_normalized(p, 2, ctx), THIN),
}


@pytest.mark.parametrize("site", ROOT_TABLE_SITES)
def test_root_tables_cost_a_fixed_number_of_exponentials(site, monkeypatch):
    # every table of roots of unity is one exponential (a _unit_root), whatever
    # its order; one call per entry would grow about tenfold between the inputs
    run, inputs = ROOT_TABLE_SITES[site]
    calls = _count_exponentials(monkeypatch)
    counts = []
    for value in inputs:
        calls.clear()
        run(value, PrecisionContext(20))
        counts.append(len(calls))
    assert 0 < counts[0] == counts[1], counts


# ------------------------------------------------------------------ rounded_ratio


@settings(deadline=None, max_examples=300)
@given(
    st.integers(min_value=-(2**600), max_value=2**600),
    st.integers(min_value=1, max_value=2**400),
    st.integers(min_value=-700, max_value=700),
    st.sampled_from((53, 100, 217, 3000)),
)
@example(2**53 + 1, 1, 0, 53)  # an exact tie rounds to even, down
@example(2**53 + 3, 1, 0, 53)  # and up
@example(-(2**53 + 1), 1, 5, 53)
@example(0, 7, 3, 53)
@example(3 * (2**300 + 1), 3, -10, 100)  # exact division
def test_rounded_ratio_is_the_correctly_rounded_quotient(numerator, denominator, exponent, prec):
    # mpmath's fdiv of exact integers rounds once to nearest, ties to even
    with mp.workprec(prec):
        expected = mp.ldexp(mp.fdiv(numerator, denominator), exponent)
        assert rounded_ratio(numerator, denominator, exponent) == expected


# -------------------------------------------------------------- surgery integers


def test_seifert_q_defining_constraint():
    for ps in [(2, 3, 5), (2, 3, 7), (3, 4, 5), (2, 5, 7), (5, 7, 9)]:
        q1, q2, q3 = solve_seifert_q(*ps)
        p1, p2, p3 = ps
        assert q1 * p2 * p3 + q2 * p1 * p3 + q3 * p1 * p2 == 1
        assert 0 <= q1 < p1 and 0 <= q2 < p2


def test_seifert_q_canonical_values():
    assert solve_seifert_q(2, 3, 5) == (1, 1, -4)
    # reduction rule puts q1, q2 in range with q3 absorbing the remainder
    assert solve_seifert_q(2, 3, 7) == (1, 2, -8)


def test_bernoulli_numbers_known():
    evens = even_bernoulli_numbers(6)  # B_2, B_4, .., B_12
    assert (evens[0], evens[-1]) == (Fraction(1, 6), Fraction(-691, 2730))


def test_precision_context_is_validated_on_every_construction():
    ctx = PrecisionContext(decimal_digits=20)
    assert repr(ctx) == "PrecisionContext(decimal_digits=20)"
    assert ctx == PrecisionContext(20) and hash(ctx) == hash(PrecisionContext(20))
    assert PrecisionContext().decimal_digits == 50 and ctx.working_digits == 35
    assert ctx._replace(decimal_digits=15) == PrecisionContext(15)
    for build in (PrecisionContext, lambda d: ctx._replace(decimal_digits=d)):
        with pytest.raises(ValueError, match="at least 15"):
            build(14)
    with pytest.raises(ValueError, match="at least 15"):
        PrecisionContext._make([14])
    with pytest.raises(AttributeError):
        ctx.decimal_digits = 30


def test_bernoulli_numbers_match_the_recurrence_to_300():
    # the tangent-number route against the Fraction recurrence it replaced
    reference = tuple(bernoulli_recurrence(n) for n in range(2, 301, 2))
    assert even_bernoulli_numbers(150) == reference
    assert even_bernoulli_numbers(0) == ()


def test_bernoulli_cache_is_bounded():
    # one table per power of two, at least 16, in a cache of eight tables
    _even_bernoulli_table.cache_clear()
    for count in (1, 9, 16, 17, 100):
        even_bernoulli_numbers(count)
    info = _even_bernoulli_table.cache_info()
    assert (info.currsize, info.maxsize) == (3, 8)
