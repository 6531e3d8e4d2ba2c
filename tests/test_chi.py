import gc
import math
import sys
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brieskorn_wrt import (
    BrieskornTriple,
    EllTriple,
    PrecisionContext,
    admissible_count,
    admissible_triples,
    asymptotic_approx,
    build_chi,
    canonicalize,
    eichler_tail,
    enumerate_triples,
    gamma_closed_form,
    mordell_count,
    orbit,
)
from brieskorn_wrt.chi import EllRuns, l_value_ratios
from conftest import coprime_triples
from oracles import (
    admissible_triples_listed,
    chi_value,
    ell_condition,
    generating_series,
    l_function_value_bernoulli,
    orbit_minima,
    solve_seifert_q,
    weighted_sum,
)

SMALL_TRIPLES = coprime_triples(400)
triple_strategy = st.sampled_from(SMALL_TRIPLES)


# ----------------------------------------------------------------- construction


def test_triple_sorts_and_derives():
    p = BrieskornTriple(7, 2, 3)
    assert p.p == (2, 3, 7)
    assert p.P == 42
    assert p.D == 3
    assert not p.is_poincare
    assert BrieskornTriple(5, 3, 2).is_poincare


def test_triple_is_an_immutable_value_keyed_by_p():
    # the semantics of the frozen record it replaced: field-wise equality and
    # hash, its repr, no assignment, and no equality with a plain tuple
    p = BrieskornTriple(7, 3, 2)
    assert p == BrieskornTriple(2, 3, 7) and p != BrieskornTriple(2, 3, 11)
    assert hash(p) == hash(BrieskornTriple(3, 7, 2)) == hash((2, 3, 7))
    assert repr(p) == "BrieskornTriple(p1=2, p2=3, p3=7)"
    assert str(p) == "Sigma(2,3,7)"
    assert p != (2, 3, 7) and (2, 3, 7) != p
    assert BrieskornTriple(p1=5, p2=2, p3=3).p == (2, 3, 5)
    for name in ("p1", "P", "D", "extra"):
        with pytest.raises(AttributeError):
            setattr(p, name, 11)
    with pytest.raises(AttributeError):
        del p.p2
    assert p.p == (2, 3, 7) and (p.P, p.D, p.cofactors) == (42, 3, (21, 14, 6))
    assert {p: 1}[BrieskornTriple(2, 7, 3)] == 1


def test_triple_validation():
    with pytest.raises(ValueError):
        BrieskornTriple(2, 4, 5)
    with pytest.raises(ValueError):
        BrieskornTriple(1, 2, 3)


def test_poincare_is_unique_small_exhaustive():
    # exhaustive sweep: no other coprime triple has reciprocal sum above 1.
    # p1 >= 3 cannot work (1/3 + 1/4 + 1/5 < 1), and p1 = 2, p2 >= 5 cannot
    # either, so only bounded p3 needs checking; scan a wide window anyway.
    found = []
    for p1 in (2, 3, 4):
        for p2 in range(p1 + 1, 13):
            if math.gcd(p1, p2) != 1:
                continue
            for p3 in range(p2 + 1, 10_001):
                if math.gcd(p1, p3) != 1 or math.gcd(p2, p3) != 1:
                    continue
                if Fraction(1, p1) + Fraction(1, p2) + Fraction(1, p3) > 1:
                    found.append((p1, p2, p3))
    assert found == [(2, 3, 5)]


def test_structural_checks_raise_arithmetic_error(monkeypatch):
    # bypass validation to reach the invariants that valid input never breaks
    not_coprime = object.__new__(BrieskornTriple)
    for name, value in zip(("p1", "p2", "p3", "P", "cofactors"), (2, 3, 4, 24, (12, 8, 6))):
        object.__setattr__(not_coprime, name, value)
    with pytest.raises(ArithmeticError):
        not_coprime.is_poincare  # 1/2 + 1/3 + 1/4 > 1 but not (2, 3, 5)
    monkeypatch.setattr(math, "gcd", lambda a, b: 1)  # let (2, 4, 7) pass as coprime
    with pytest.raises(ArithmeticError):
        BrieskornTriple(2, 4, 7)  # (p1-1)(p2-1)(p3-1) = 18 is not divisible by 4


def test_seifert_q_attached_to_triple():
    p = BrieskornTriple(2, 3, 5)
    q1, q2, q3 = solve_seifert_q(*p.p)
    assert 15 * q1 + 10 * q2 + 6 * q3 == 1


# --------------------------------------------------------------------- chi table


def test_chi_237_golden_table():
    chi = build_chi(BrieskornTriple(2, 3, 7), EllTriple(1, 1, 1))
    assert [r for r, s in chi.signed_support if s == 1] == [1, 41, 55, 71]
    assert [r for r, s in chi.signed_support if s == -1] == [13, 29, 43, 83]


def test_chi_235_golden_table():
    chi = build_chi(BrieskornTriple(2, 3, 5), EllTriple(1, 1, 1))
    assert [r for r, s in chi.signed_support if s == -1] == [1, 11, 19, 29]
    assert [r for r, s in chi.signed_support if s == 1] == [31, 41, 49, 59]


def test_chi_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_chi(BrieskornTriple(2, 3, 7), EllTriple(2, 1, 1))


@settings(max_examples=60, deadline=None)
@given(triple_strategy, st.data())
def test_chi_odd_zero_mean_eight_support(ps, data):
    p = BrieskornTriple(*ps)
    ell = EllTriple(
        data.draw(st.integers(1, p.p1 - 1)),
        data.draw(st.integers(1, p.p2 - 1)),
        data.draw(st.integers(1, p.p3 - 1)),
    )
    chi = build_chi(p, ell)
    residues = [r for r, _ in chi.signed_support]
    assert len(set(residues)) == 8 and residues == sorted(residues)
    assert all(0 <= r < chi.modulus for r in residues)
    signs = [sign for _, sign in chi.signed_support]
    assert signs.count(1) == 4 and signs.count(-1) == 4
    assert sum(chi_value(chi, n) for n in range(chi.modulus)) == 0
    for n in range(chi.modulus):
        assert chi_value(chi, chi.modulus - n) == -chi_value(chi, n)
        assert chi_value(chi, n + chi.modulus) == chi_value(chi, n)


@settings(max_examples=60, deadline=None)
@given(triple_strategy, st.data())
def test_chi_constant_on_orbit(ps, data):
    p = BrieskornTriple(*ps)
    ell = EllTriple(
        data.draw(st.integers(1, p.p1 - 1)),
        data.draw(st.integers(1, p.p2 - 1)),
        data.draw(st.integers(1, p.p3 - 1)),
    )
    supports = {build_chi(p, member).signed_support for member in orbit(p, ell)}
    assert len(supports) == 1


def test_chi_memory_does_not_grow_with_the_period():
    # fifty chi of a manifold with P = 102,083 hold eight pairs each, not a
    # table of 2P entries; the cache is bypassed so every chi is built anew
    p = BrieskornTriple(31, 37, 89)
    tracemalloc.start()
    try:
        chis = [build_chi.__wrapped__(p, EllTriple(1, 1, l3)) for l3 in range(1, 51)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(chis) == 50
    assert peak < 2**20, peak


# ------------------------------------------------------------- canonical triples


def test_canonicalize_examples():
    p = BrieskornTriple(2, 3, 7)
    assert canonicalize(p, EllTriple(1, 2, 5)) == EllTriple(1, 1, 2)
    assert canonicalize(p, EllTriple(1, 1, 1)) == EllTriple(1, 1, 1)


def test_canonicalize_idempotent_345():
    p = BrieskornTriple(3, 4, 5)
    for l1 in range(1, 3):
        for l2 in range(1, 4):
            for l3 in range(1, 5):
                once = canonicalize(p, EllTriple(l1, l2, l3))
                assert canonicalize(p, once) == once


def test_enumerate_triples_examples():
    assert list(enumerate_triples(BrieskornTriple(2, 3, 7))) == [
        (1, 1, 1),
        (1, 1, 2),
        (1, 1, 3),
    ]
    assert list(enumerate_triples(BrieskornTriple(3, 4, 5))) == [
        (1, 1, 1),
        (1, 1, 2),
        (1, 1, 3),
        (1, 1, 4),
        (1, 2, 1),
        (1, 2, 2),
    ]
    assert len(enumerate_triples(BrieskornTriple(2, 3, 5))) == 2


def test_enumerate_triples_equals_full_lattice_canonicalization():
    even_positions = set()
    for ps in coprime_triples(3000):
        p = BrieskornTriple(*ps)
        assert list(enumerate_triples(p)) == orbit_minima(ps)
        even_positions.update(i for i, pk in enumerate(ps) if pk % 2 == 0)
    # the tie rules differ with the position of the single even p_i
    assert even_positions == {0, 1, 2}
    for ps in SMALL_TRIPLES:
        p = BrieskornTriple(*ps)
        lattice = product(range(1, p.p1), range(1, p.p2), range(1, p.p3))
        canonical = {canonicalize(p, EllTriple(*ell)) for ell in lattice}
        assert tuple(enumerate_triples(p)) == tuple(sorted(canonical))


@settings(max_examples=40, deadline=None)
@given(triple_strategy)
def test_enumerate_count_is_d(ps):
    p = BrieskornTriple(*ps)
    assert len(enumerate_triples(p)) == p.D


# ---------------------------------------------------------------- weighted sums


def test_weighted_sum_values():
    p7 = BrieskornTriple(2, 3, 7)
    assert weighted_sum(build_chi(p7, EllTriple(1, 1, 1))) == 0
    # non-vanishing triples carry exactly 4P (= 168 here)
    assert weighted_sum(build_chi(p7, EllTriple(1, 1, 2))) == 4 * p7.P
    p5 = BrieskornTriple(2, 3, 5)
    assert weighted_sum(build_chi(p5, EllTriple(1, 1, 1))) == 120


@settings(max_examples=80, deadline=None)
@given(triple_strategy, st.data())
def test_weighted_sum_dichotomy_matches_condition(ps, data):
    p = BrieskornTriple(*ps)
    ell = EllTriple(
        data.draw(st.integers(1, p.p1 - 1)),
        data.draw(st.integers(1, p.p2 - 1)),
        data.draw(st.integers(1, p.p3 - 1)),
    )
    w = weighted_sum(build_chi(p, ell))
    assert w in (0, 4 * p.P)
    assert (w == 4 * p.P) == ell_condition(p, ell)


# ------------------------------------------------------------ admissible triples


def test_admissible_examples():
    triples, gamma = admissible_triples(BrieskornTriple(2, 3, 7))
    assert gamma == 2
    assert list(triples) == [(1, 1, 2), (1, 1, 3)]
    assert admissible_triples(BrieskornTriple(3, 4, 5))[1] == 4
    triples5, gamma5 = admissible_triples(BrieskornTriple(2, 3, 5))
    assert gamma5 == 2 and len(triples5) == 2


def _ell_condition_fractions(p, ell):
    """Oracle: the open-tetrahedron inequalities in exact fractions l_k/p_k."""
    f = [Fraction(l, pk) for l, pk in zip(ell, p.p)]
    s = f[0] + f[1] + f[2]
    if not 1 < s < 3:
        return False
    return all(-1 < s - 2 * fk < 1 for fk in f)


def test_ell_condition_matches_fraction_form():
    for ps in coprime_triples(3000):
        p = BrieskornTriple(*ps)
        triples = enumerate_triples(p)
        expected = tuple(t for t in triples if _ell_condition_fractions(p, t))
        assert tuple(t for t in triples if ell_condition(p, t)) == expected
        view, gamma = admissible_triples(p)
        assert (tuple(view), gamma) == (expected, len(expected))
        assert admissible_count(p) == len(expected)


@pytest.mark.parametrize(
    "ps",
    [
        (2, 3, 7),  # 2 l1 = p1 on every row
        (3, 4, 5),  # 2 l2 = p2 at l2 = 2
        (4, 5, 7),  # 2 l1 = p1 at l1 = 2
        (3, 5, 8),  # p3 even: no tie, l3 unrestricted
    ],
)
def test_admissible_runs_respect_the_tie_rules(ps):
    # against the canonicalised full lattice, not enumerate_triples
    p = BrieskornTriple(*ps)
    expected = tuple(
        EllTriple(*ell) for ell in orbit_minima(ps) if _ell_condition_fractions(p, EllTriple(*ell))
    )
    view, gamma = admissible_triples(p)
    assert (tuple(view), gamma) == (expected, len(expected))
    assert admissible_count(p) == len(expected)


def test_admissible_routes_keep_the_d_count_check():
    wrong_d = BrieskornTriple(2, 3, 7)
    object.__setattr__(wrong_d, "D", 4)  # shadows the cached property
    with pytest.raises(ArithmeticError):
        admissible_triples(wrong_d)
    with pytest.raises(ArithmeticError):
        admissible_count(wrong_d)
    with pytest.raises(ArithmeticError):
        enumerate_triples(wrong_d)


def test_admissible_routes_never_enumerate_the_lattice(no_enumeration):
    for ps in [(2, 3, 7), (3, 4, 5), (7, 11, 13), (3, 4, 14999)]:
        p = BrieskornTriple(*ps)
        assert admissible_count(p) == admissible_triples(p)[1]
    # the dominant sum reads the admissible runs, not modular_data's triples
    asymptotic_approx(BrieskornTriple(13, 17, 19), 20, 2, PrecisionContext(23))


def test_ell_triple_is_the_plain_tuple_with_names():
    ell = EllTriple(1, 2, 3)
    assert ell == (1, 2, 3) and hash(ell) == hash((1, 2, 3))
    triples = [EllTriple(2, 1, 1), EllTriple(1, 3, 2), EllTriple(1, 2, 4)]
    assert sorted(triples) == sorted(map(tuple, triples)) == [(1, 2, 4), (1, 3, 2), (2, 1, 1)]
    assert EllTriple(1, 2, 3) < (1, 3, 1) < EllTriple(2, 1, 1)
    assert repr(ell) == "EllTriple(l1=1, l2=2, l3=3)"
    with pytest.raises(AttributeError):
        ell.l1 = 5
    assert tuple(ell) == (1, 2, 3) and not hasattr(ell, "ell")
    for ps in [(2, 3, 7), (3, 4, 5), (4, 5, 7), (7, 11, 13)]:
        p = BrieskornTriple(*ps)
        for t in (*admissible_triples(p)[0], *enumerate_triples(p)):
            assert type(t) is EllTriple
            assert (t.l1, t.l2, t.l3) == tuple(t)


def _check_view_against_the_listed_tuple(p):
    view, gamma = admissible_triples(p)
    listed = admissible_triples_listed(p)
    assert type(view) is EllRuns
    assert len(view) == gamma == len(listed)
    iterated = tuple(view)
    assert iterated == listed and all(type(t) is EllTriple for t in iterated)
    assert tuple(view) == iterated  # a view iterates afresh each time


@pytest.mark.parametrize("ps", [(2, 3, 7), (3, 4, 5), (4, 5, 7), (3, 5, 8), (2, 3, 5)])
def test_admissible_view_behaves_as_the_listed_tuple(ps):
    _check_view_against_the_listed_tuple(BrieskornTriple(*ps))


@settings(max_examples=40, deadline=None)
@given(triple_strategy)
def test_admissible_view_behaves_as_the_listed_tuple_everywhere(ps):
    _check_view_against_the_listed_tuple(BrieskornTriple(*ps))


def test_admissible_triples_memory_does_not_grow_with_gamma():
    # (3, 4, p3) has two canonical pairs and at most two admissible runs
    # whatever p3, so either view holds a few KB whether gamma is 840 or
    # 83,326 and D 1512 or 149,985
    peaks = []
    admissible_triples(BrieskornTriple(3, 4, 11))  # first-call allocations
    enumerate_triples(BrieskornTriple(3, 4, 11))
    for ps in [(3, 4, 1009), (3, 4, 99991)]:
        p = BrieskornTriple(*ps)
        for fn in (lambda p: admissible_triples(p)[1], lambda p: len(enumerate_triples(p))):
            tracemalloc.start()
            try:
                size = fn(p)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append((size, peak))
    assert [size for size, _ in peaks] == [840, 1512, 83326, 149985]
    assert all(peak < 4096 for _, peak in peaks), peaks


def _profiled_calls(fn, *args):
    """Python-level calls (sys.setprofile "call" events) made while running fn(*args).

    The collector is run first and held off meanwhile, so finalizers of other
    tests' garbage are not counted.
    """
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call"

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return count


def _iterate_admissible(p):
    for _ in admissible_triples(p)[0]:
        pass


@pytest.mark.parametrize("fn", [admissible_triples, _iterate_admissible, enumerate_triples])
def test_triple_lists_run_no_python_code_per_triple(fn):
    # (2, 3, p3) has one canonical pair and one admissible run whatever p3, so
    # the Python calls must not grow with gamma (336 -> 3336) or D (504 -> 5003),
    # whether the admissible view is built or iterated
    small, large = BrieskornTriple(2, 3, 1009), BrieskornTriple(2, 3, 10007)
    assert _profiled_calls(fn, small) == _profiled_calls(fn, large)
    assert (admissible_count(small), admissible_count(large)) == (336, 3336)


def test_mordell_count_matches_brute_force():
    for ps in coprime_triples(500):
        p = BrieskornTriple(*ps)
        brute = sum(
            1
            for ell in product(range(1, p.p1), range(1, p.p2), range(1, p.p3))
            if sum(Fraction(l, pk) for l, pk in zip(ell, p.p)) < 1
        )
        assert mordell_count(p) == brute


@settings(max_examples=60, deadline=None)
@given(triple_strategy)
def test_gamma_three_ways(ps):
    p = BrieskornTriple(*ps)
    _, gamma = admissible_triples(p)
    assert gamma_closed_form(p) == gamma
    assert p.D - mordell_count(p) == gamma


def _coprime(*ps):
    return all(math.gcd(a, b) == 1 for i, a in enumerate(ps) for b in ps[i + 1 :])


thin_strategy = st.tuples(
    st.sampled_from([(2, 3), (2, 5), (3, 4)]), st.integers(7, 10**5)
).map(lambda fp: (*fp[0], fp[1])).filter(lambda ps: _coprime(*ps))
fat_strategy = st.tuples(
    st.integers(7, 30), st.integers(31, 60), st.integers(61, 400)
).filter(lambda ps: _coprime(*ps))


@settings(max_examples=80, deadline=None)
@given(st.one_of(thin_strategy, fat_strategy))
def test_gamma_count_matches_closed_form_and_mordell(ps):
    p = BrieskornTriple(*ps)
    gamma = admissible_count(p)
    assert gamma == gamma_closed_form(p) == p.D - mordell_count(p)


# --------------------------------------------------------------------- L-values


def test_l_value_chi60():
    chi = build_chi(BrieskornTriple(2, 3, 5), EllTriple(1, 1, 1))
    assert [Fraction(*r) for r in l_value_ratios(chi, (0, 1))] == [-2, 238]


def test_l_zero_equals_weighted_sum_ratio():
    p = BrieskornTriple(2, 3, 7)
    for ell in enumerate_triples(p):
        chi = build_chi(p, ell)
        assert Fraction(*l_value_ratios(chi, (0,))[0]) == -Fraction(weighted_sum(chi), 2 * p.P)


@pytest.mark.parametrize("ps", [(2, 3, 5), (2, 3, 7), (3, 4, 5), (5, 7, 9)])
def test_l_values_match_bernoulli_polynomial_form(ps):
    # the moment route against eight Bernoulli polynomials, every canonical ell
    p = BrieskornTriple(*ps)
    for ell in enumerate_triples(p):
        chi = build_chi(p, ell)
        values = [Fraction(*r) for r in l_value_ratios(chi, range(31))]
        assert values == [l_function_value_bernoulli(chi, k) for k in range(31)], ell


# --------------------------- generating function oracle for the L-values


def _series_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > order:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            out[i + j] += ai * bj
    return out


def _sinh_over_z(a, order):
    # sh(a z)/z = sum_j a^(2j+1) z^(2j) / (2j+1)!
    out = [Fraction(0)] * (order + 1)
    for j in range(0, order // 2 + 1):
        out[2 * j] = Fraction(a ** (2 * j + 1), math.factorial(2 * j + 1))
    return out


def _cosh(a, order):
    out = [Fraction(0)] * (order + 1)
    for j in range(0, order // 2 + 1):
        out[2 * j] = Fraction(a ** (2 * j), math.factorial(2 * j))
    return out


def _series_div(num, den, order):
    assert den[0] != 0
    out = []
    for n in range(order + 1):
        acc = num[n]
        for j in range(n):
            acc -= out[j] * den[n - j]
        out.append(acc / den[0])
    return out


def l_values_from_hyperbolic_quotient(ps, k_max):
    """Oracle: coefficients of 4 sh(p1p2 z) sh(p1p3 z) sh(p2p3 z)/sh(P z),
    minus 2 ch(z) for (2,3,5), read as L(-2k)/(2k)!."""
    p1, p2, p3 = sorted(ps)
    order = 2 * k_max
    num = _series_mul(
        _series_mul(_sinh_over_z(p1 * p2, order), _sinh_over_z(p1 * p3, order), order),
        _sinh_over_z(p2 * p3, order),
        order,
    )
    # numerator carried z^3 implicitly, denominator z^1: net z^2 handled by
    # dividing the z-free series and shifting twice
    quotient = _series_div(num, _sinh_over_z(p1 * p2 * p3, order), order)
    series = [Fraction(0), Fraction(0)] + [4 * c for c in quotient[: order - 1]]
    if (p1, p2, p3) == (2, 3, 5):
        ch = _cosh(1, order)
        series = [s - 2 * c for s, c in zip(series, ch)]
    return [series[2 * k] * math.factorial(2 * k) for k in range(k_max + 1)]


@pytest.mark.parametrize("ps", [(2, 3, 5), (2, 3, 7), (3, 4, 5)])
def test_l_values_match_generating_function(ps):
    p = BrieskornTriple(*ps)
    chi = build_chi(p, EllTriple(1, 1, 1))
    oracle = l_values_from_hyperbolic_quotient(ps, 8)
    assert [Fraction(*r) for r in l_value_ratios(chi, range(9))] == oracle


def test_l_values_generating_sigma_237():
    oracle = l_values_from_hyperbolic_quotient((2, 3, 7), 5)
    chi = build_chi(BrieskornTriple(2, 3, 7), EllTriple(1, 1, 1))
    assert [Fraction(*r) for r in l_value_ratios(chi, range(6))] == oracle


# ------------------------------------------------------------ generating series


@pytest.mark.parametrize("ps", [(2, 3, 7), (3, 4, 5), (2, 5, 7)])
def test_generating_series_matches_chi(ps):
    p = BrieskornTriple(*ps)
    chi = build_chi(p, EllTriple(1, 1, 1))
    coeffs = generating_series(p, 4 * p.P - 1)
    assert all(c in (-1, 0, 1) for c in coeffs)
    for n, c in enumerate(coeffs):
        assert c == chi_value(chi, n)


def test_generating_series_poincare_correction():
    p = BrieskornTriple(2, 3, 5)
    chi = build_chi(p, EllTriple(1, 1, 1))
    coeffs = generating_series(p, 2 * p.P)
    assert coeffs[1] == chi_value(chi, 1) + 1 == 0
    for n, c in enumerate(coeffs):
        if n != 1:
            assert c == chi_value(chi, n)


@pytest.mark.parametrize("ps", ((2, 3, 5), (2, 3, 7), (5, 7, 9), (7, 11, 13)))
def test_one_pass_l_values_match_bernoulli_form_to_order_100(ps):
    # eichler_tail takes every L-value up to k = 100 from one pass over the
    # moments; the same kernel gives each value for a single k too
    p = BrieskornTriple(*ps)
    chi = build_chi(p, EllTriple(1, 1, 1))
    tail = eichler_tail(p, EllTriple(1, 1, 1), 100)
    assert len(tail) == 101
    for k in (0, 1, 2, 3, 17, 64, 100):
        value = l_function_value_bernoulli(chi, k)
        assert Fraction(*l_value_ratios(chi, (k,))[0]) == value, k
        assert tail[k] == value / math.factorial(k), k
