import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from mpmath import mp

from brieskorn_wrt import (
    BrieskornTriple,
    EllTriple,
    admissible_count,
    admissible_triples,
    asymptotic_approx,
    build_chi,
    eichler_limit,
    eichler_tail,
    enumerate_triples,
    modular_data,
    nearly_modular_expansion,
    orbit,
    theta_eval,
)
from brieskorn_wrt import exactmath, modularform
from brieskorn_wrt.chi import t_numerator
from brieskorn_wrt.exactmath import PrecisionContext
from brieskorn_wrt.modularform import THETA_MAX_TERMS, _modular_data_cached, _theta_cutoff
from conftest import coprime_triples, vertical_limit
from oracles import (
    dominant_per_column,
    eichler_integer_data,
    eichler_limit_per_term,
    eichler_tail_term,
    l_function_value_bernoulli,
    modular_index,
    phi_hat,
    s_parity_reference,
    t_exponent_fraction,
    to_mpf,
    weighted_sum,
)

P235 = BrieskornTriple(2, 3, 5)
P237 = BrieskornTriple(2, 3, 7)
P345 = BrieskornTriple(3, 4, 5)
P358 = BrieskornTriple(3, 5, 8)
P579 = BrieskornTriple(5, 7, 9)


# ------------------------------------------------------------- exact S/T data


def test_t_exponents_match_quoted_phases():
    # the T-exponent is A^2 mod 4P over 2P; 121/84 = -47/84 mod 2 is the
    # phase quoted with the other sign convention
    for p, ell, quoted in (
        (P237, EllTriple(1, 1, 2), Fraction(25, 84)),
        (P237, EllTriple(1, 1, 3), Fraction(121, 84)),
        (P235, EllTriple(1, 1, 1), Fraction(1, 60)),
        (P235, EllTriple(1, 1, 2), Fraction(49, 60)),
    ):
        assert Fraction(t_numerator(p, ell), 2 * p.P) == quoted


def test_t_exponent_constant_on_orbit():
    from brieskorn_wrt import orbit

    for p in (P237, P345):
        for ell in enumerate_triples(p):
            exps = {t_numerator(p, member) for member in orbit(p, ell)}
            assert len(exps) == 1


def test_s_entries_quoted_values(ctx50):
    md5 = modular_data(P235, ctx50)
    md7 = modular_data(P237, ctx50)
    with ctx50.workdps():
        tol = ctx50.tolerance
        assert abs(
            md5.s_value(EllTriple(1, 1, 1), EllTriple(1, 1, 1))
            - 2 / mp.sqrt(5) * mp.sinpi(mp.mpf(1) / 5)
        ) < tol
        assert abs(
            md7.s_value(EllTriple(1, 1, 1), EllTriple(1, 1, 2))
            + 2 / mp.sqrt(7) * mp.sinpi(mp.mpf(2) / 7)
        ) < tol
        assert abs(
            md7.s_value(EllTriple(1, 1, 1), EllTriple(1, 1, 3))
            + 2 / mp.sqrt(7) * mp.sinpi(mp.mpf(3) / 7)
        ) < tol


def _sign_of_sinpi(x: Fraction) -> int:
    # sign of sin(pi x) for non-integral rational x
    return -1 if math.floor(x) % 2 else 1


def _s_entry_oracle(p, ell, ellp):
    # the per-entry formula: integer parity, then the reduced Fraction angles
    # r_j = P l_j l'_j / p_j^2 mod 1 with the sign of each sin(pi x_j)
    l, lp = tuple(ell), tuple(ellp)
    value = (-1 if s_parity_reference(p, l, lp) else 1) * mp.sqrt(mp.mpf(32) / p.P)
    for j in range(3):
        x = Fraction(p.P * l[j] * lp[j], p.p[j] ** 2)
        angle = x % 1
        assert 0 <= angle < 1
        if angle != 0:
            value *= _sign_of_sinpi(x)
        value *= mp.sinpi(to_mpf(angle))
    return value


@pytest.mark.parametrize("p", [P235, P345, P358, P579])
def test_s_row_matches_per_entry_oracle(p, ctx50):
    md = modular_data(p, ctx50)
    assert len(md.triples) == p.D
    with ctx50.workdps():
        for i, ell in enumerate(md.triples):
            row = md.s_row(ell)
            assert len(row) == p.D
            # a non-canonical orbit member reads the canonical row and entry,
            # which the per-entry formula also gives at that member
            for member in orbit(p, ell)[1:]:
                assert modular_index(md, member) == i
                assert md.s_row(member) == row
            for s, ellp in zip(row, md.triples):
                assert abs(s - _s_entry_oracle(p, ell, ellp)) < ctx50.tolerance
                for member in orbit(p, ellp)[1:]:
                    assert md.s_value(ell, member) == s
                    assert abs(s - _s_entry_oracle(p, ell, member)) < ctx50.tolerance


def test_s_value_matches_reference_sign_and_sines():
    # every pair of canonical triples on every sphere with D <= 60 (P <= 32 D
    # bounds the search): the sign form that S entries and the dominant sum
    # share, against the parity written out with its cross terms, times
    # sin(pi x / p_j^2) for x = P l_j l'_j mod 2 p_j^2, not the tables' index;
    # each row is read once (the per-entry oracle test pins s_value to it)
    ctx = PrecisionContext(20)
    spheres = [BrieskornTriple(*ps) for ps in coprime_triples(32 * 60)]
    spheres = [p for p in spheres if p.D <= 60]
    assert len(spheres) == 157
    pairs = 0
    with ctx.workdps():
        tol = ctx.tolerance
        for p in spheres:
            md = modular_data(p, ctx)
            scale = mp.sqrt(mp.mpf(32) / p.P)
            sines = {}
            triples = tuple(enumerate_triples(p))
            for ell in triples:
                row = md.s_row(ell)  # entry j is S[ell][triples[j]]
                assert len(row) == len(triples)
                for ellp, value in zip(triples, row):
                    want = -scale if s_parity_reference(p, ell, ellp) else scale
                    for a, b, pk in zip(ell, ellp, p.p):
                        key = (pk, p.P * a * b % (2 * pk * pk))
                        if key not in sines:
                            sines[key] = mp.sinpi(mp.mpf(key[1]) / (pk * pk))
                        want *= sines[key]
                    assert abs(value - want) < tol, (p.p, tuple(ell), tuple(ellp))
                    pairs += 1
    assert pairs == sum(p.D**2 for p in spheres)


@pytest.mark.parametrize("ps", [(2, 3, 5), (7, 11, 13), (2, 3, 1009)])
def test_s_value_within_stated_bound(ps):
    # the ModularData docstring bound, 4 sqrt(32/P) 2^-prec at the working
    # precision, against sinpi of P l_j l'_j / p_j^2 taken 20 digits wider;
    # every pair on the first two spheres, a seeded sample on the thin one
    ctx = PrecisionContext(30)
    p = BrieskornTriple(*ps)
    md = modular_data(p, ctx)
    triples = enumerate_triples(p)
    pairs = [(a, b) for a in triples for b in triples]
    if len(pairs) > 40000:
        pairs = random.Random(1009).sample(pairs, 400)
    with ctx.workdps():
        prec = mp.prec
    with mp.workdps(ctx.working_digits + 20):
        scale = mp.sqrt(mp.mpf(32) / p.P)
        bound, sines = 4 * scale * mp.mpf(2) ** -prec, {}
        for ell, ellp in pairs:
            want = -scale if s_parity_reference(p, ell, ellp) else scale
            for a, b, pk in zip(ell, ellp, p.p):
                key = (pk, p.P * a * b % (2 * pk * pk))
                if key not in sines:
                    sines[key] = mp.sinpi(mp.mpf(key[1]) / (pk * pk))
                want *= sines[key]
            assert abs(md.s_value(ell, ellp) - want) <= bound, (ps, ell, ellp)


@pytest.mark.parametrize("ps", [(7, 11, 13), (2, 3, 1009)])
def test_modular_data_owns_the_only_warm_root_tables(ps, monkeypatch):
    # a cold modular_data builds one row per fibre; a warm expansion or
    # asymptotic call reads those rows and builds no table
    p, ctx, built = BrieskornTriple(*ps), PrecisionContext(20), []
    real = modularform.root_table

    def counted(order, bits):
        built.append(order)
        return real(order, bits)

    monkeypatch.setattr(modularform, "root_table", counted)
    _modular_data_cached.cache_clear()
    modular_data(p, ctx)
    assert sorted(built) == [4 * pk for pk in p.p]
    for call in (
        lambda: nearly_modular_expansion(p, (1, 1, 1), 50, 3, ctx),
        lambda: asymptotic_approx(p, 50, 3, ctx),
    ):
        built.clear()
        call()
        assert built == [], built


def test_modular_data_cache_is_bounded():
    bound = _modular_data_cached.cache_info().maxsize
    assert bound is not None
    for digits in range(15, 15 + bound + 2):
        modular_data(P235, PrecisionContext(digits))
    info = _modular_data_cached.cache_info()
    assert info.currsize <= info.maxsize


def test_s_matrix_is_symmetric_involution(ctx50):
    # S^2 = 1 and S = S^T, entry by entry, within the context tolerance
    for p in (P235, P237, P345):
        md = modular_data(p, ctx50)
        with ctx50.workdps():
            d = len(md.triples)
            s = [md.s_row(ell) for ell in md.triples]
            ss = [
                [sum(s[i][k] * s[k][j] for k in range(d)) for j in range(d)]
                for i in range(d)
            ]
            dev_invol = max(
                abs(ss[i][j] - (1 if i == j else 0)) for i in range(d) for j in range(d)
            )
            dev_sym = max(
                abs(s[i][j] - s[j][i])
                for i in range(d)
                for j in range(d)
            )
            assert dev_invol < ctx50.tolerance, (p, dev_invol)
            assert dev_sym < ctx50.tolerance, (p, dev_sym)


# ------------------------------------------------------------- theta evaluation


def test_theta_rejects_lower_half_plane(ctx50):
    with pytest.raises(ValueError):
        theta_eval(P237, EllTriple(1, 1, 1), mp.mpc(0, -1), ctx50)


def test_theta_rejects_tiny_imaginary_part(ctx50, monkeypatch):
    # the cutoff is checked against THETA_MAX_TERMS before any term is summed;
    # 1e-320 used to overflow and 1e-300 to ask for about 1e151 terms.  Each
    # term is one expjpi, so an expjpi that fails shows a summed term.
    def no_term(*args):
        raise AssertionError("theta_eval summed a term before rejecting tau")

    monkeypatch.setattr(mp, "expjpi", no_term)
    for im in ("1e-320", "1e-300", "1e-13"):
        with pytest.raises(ValueError, match="theta terms"):
            theta_eval(P237, EllTriple(1, 1, 1), mp.mpc(0, mp.mpf(im)), ctx50)
    # just inside the cap the cutoff stays within twice its term count
    n_max = _theta_cutoff(P237, 1e-10, -40)
    assert 4 * n_max / P237.P <= 2 * THETA_MAX_TERMS


def test_theta_t_transformation(ctx50):
    with ctx50.workdps():
        tau = mp.mpc(0, 0.5)
        for ell in enumerate_triples(P237):
            lhs = theta_eval(P237, ell, tau + 1, ctx50)
            rhs = mp.expjpi(to_mpf(t_exponent_fraction(P237, ell))) * theta_eval(
                P237, ell, tau, ctx50
            )
            assert abs(lhs - rhs) < ctx50.tolerance


@pytest.mark.parametrize("p", [P235, P345, P358])
@pytest.mark.parametrize("tau", [1j, (1 + 2j) / 3])
def test_theta_s_transformation(p, tau, ctx50):
    md = modular_data(p, ctx50)
    with ctx50.workdps():
        tau = mp.mpc(tau)
        values = {ell: theta_eval(p, ell, -1 / tau, ctx50) for ell in md.triples}
        front = (mp.mpc(0, 1) / tau) ** mp.mpf(1.5)
        for i, ell in enumerate(md.triples):
            lhs = theta_eval(p, ell, tau, ctx50)
            rhs = front * sum(
                md.s_row(ell)[j] * values[ellp] for j, ellp in enumerate(md.triples)
            )
            assert abs(lhs - rhs) < ctx50.tolerance


def test_theta_leading_term_dominates(ctx50):
    # far up the imaginary axis one lacunary term carries everything
    chi = build_chi(P237, EllTriple(1, 1, 1))
    n0, sign = chi.signed_support[0]
    with ctx50.workdps():
        tau = mp.mpc(0, 40)
        lead = n0 * sign * mp.expjpi(tau * n0 * n0 / (2 * P237.P))
        ratio = theta_eval(P237, EllTriple(1, 1, 1), tau, ctx50) / lead
        assert abs(ratio - 1) < mp.mpf("1e-80")


def _theta_tail_bound(p: BrieskornTriple, im_tau: float, n: int):
    # 8 e^{-a n^2} (n + 1/4Pa), a = pi Im(tau)/2P: the whole tail of the series past n
    a = mp.pi * mp.mpf(im_tau) / (2 * p.P)
    return 8 * mp.exp(-a * n * n) * (n + 1 / (4 * p.P * a))


def test_theta_cutoff_meets_its_tail_bound_within_seven_percent_of_the_least_n():
    # on the cutoff the tail bound is below the target tolerance/64.  The bound misses
    # the target below sqrt(ln(8/target)/a), past the peak, and falls with n beyond, so
    # bisection up to the cap finds the least n that meets it; the cutoff raises
    # exactly when even the cap misses it
    grid = [(p, im, d) for p in (P235, P237, P345, P358, BrieskornTriple(2, 3, 101))
            for im in (1e-11, 1e-9, 1e-7, 1e-3, 0.2, 1, 5, 40) for d in (5, 40, 290, 990)]
    with mp.workdps(30):
        for p, im, d in grid:
            target = mp.mpf(10) ** -d / 64
            cap = THETA_MAX_TERMS * p.P // 4
            if _theta_tail_bound(p, im, cap) > target:
                with pytest.raises(ValueError, match="theta terms"):
                    _theta_cutoff(p, im, -d)
                continue
            n = _theta_cutoff(p, im, -d)
            lo, hi = 1, cap
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if _theta_tail_bound(p, im, mid) <= target else (mid + 1, hi)
            assert _theta_tail_bound(p, im, n) <= target, (p.P, im, d, n)
            assert n <= 1.07 * lo, (p.P, im, d, n, lo)


def test_theta_at_imaginary_parts_whose_floats_are_zero_and_infinite(ctx50, monkeypatch):
    # Im(tau) = 1e-400 underflows to 0.0 and raises before any term; 1e400 overflows
    # to inf and sums the leading term alone, at n = 1
    tau = mp.mpc(0, mp.mpf("1e400"))
    with ctx50.workdps():
        lead = mp.expjpi(tau / (2 * P237.P))
    assert build_chi(P237, EllTriple(1, 1, 1)).signed_support[0] == (1, 1)
    assert theta_eval(P237, EllTriple(1, 1, 1), tau, ctx50) == lead != 0

    def no_term(*args):
        raise AssertionError("theta_eval summed a term before rejecting tau")

    monkeypatch.setattr(mp, "expjpi", no_term)
    with pytest.raises(ValueError, match="theta terms"):
        theta_eval(P237, EllTriple(1, 1, 1), mp.mpc(0, mp.mpf("1e-400")), ctx50)


@pytest.mark.parametrize("digits", [15, 50])
def test_theta_truncation_is_within_its_target_of_four_times_the_terms(digits):
    # theta_eval is within the target tolerance/64 plus its rounding of the series to
    # 4 n_max at 20 more digits.  Each term's argument tau n^2/2P is rounded three times,
    # a phase error up to 3 pi u |tau| n_max^2/2P, the term is within 3u, and each of the
    # terms is added within u of the running sum, u = 2^(1 - prec); the sum of |terms|
    # is at most 8 (1/sqrt(2 e a) + c), a peak term plus (1/2P) int x e^{-ax^2} per class.
    # The reference steps term <- term w^(n + P), w = e^{2 pi i tau}, at 20 more digits:
    # its error, about (n^2/P + k^2) u 10^-20 at 4 n_max, is below 1e-12 of that rounding.
    ctx, wide = PrecisionContext(digits), PrecisionContext(digits + 20)
    chi = build_chi(P237, EllTriple(1, 1, 1))
    for im in ("1e-7", "0.2"):
        n_max = _theta_cutoff(P237, float(im), -ctx.tolerance_digits)
        for re in ("0", "0.37"):
            with ctx.workdps():
                tau = mp.mpc(re, im)
                a = mp.pi * mp.im(tau) / (2 * P237.P)
                terms = sum(len(range(r, n_max + 1, chi.modulus)) for r, _ in chi.signed_support)
                phase = 3 * mp.pi * abs(tau) * n_max**2 / (2 * P237.P)
                mass = 8 * (1 / mp.sqrt(2 * mp.e * a) + 1 / (4 * P237.P * a))
                rounding = mass * (phase + terms + 3) * 2 ** (1 - mp.prec)
                allowed = ctx.tolerance / 64 + rounding
            value = theta_eval(P237, EllTriple(1, 1, 1), tau, ctx)
            with wide.workdps():
                w = mp.expjpi(2 * tau)
                step, reference = w ** (2 * P237.P), mp.mpc(0)
                for r, sign in chi.signed_support:
                    term, ratio = sign * mp.expjpi(tau * r * r / (2 * P237.P)), w ** (r + P237.P)
                    for n in range(r, 4 * n_max + 1, chi.modulus):
                        reference += n * term
                        term, ratio = term * ratio, ratio * step
                assert abs(value - reference) <= allowed, (digits, im, re)


# -------------------------------------------------------------- Eichler limits


def test_eichler_validation(ctx50):
    with pytest.raises(ValueError):
        eichler_limit(P237, EllTriple(1, 1, 1), 2, 4, ctx50)
    with pytest.raises(ValueError):
        eichler_limit(P237, EllTriple(1, 1, 1), 1, 0, ctx50)


def test_eichler_integer_values_exact_form(ctx50):
    # closed form: -(weighted sum / 2P) e^{pi i r N}; zero iff not admissible
    with ctx50.workdps():
        for p in (P235, P237, P345):
            for ell in enumerate_triples(p):
                amp, r = eichler_integer_data(p, ell)
                w = weighted_sum(build_chi(p, ell))
                assert amp == -Fraction(w, 2 * p.P)
                for n0 in (1, 2, 5):
                    finite = eichler_limit(p, ell, n0, 1, ctx50)
                    closed = to_mpf(amp) * mp.expjpi(to_mpf((r * n0) % 2))
                    assert abs(finite - closed) < ctx50.tolerance


def test_eichler_integer_237_quoted_values(ctx50):
    # (1,1,1) vanishes; (1,1,3) gives -2 e^{-47 pi i N/84}
    with ctx50.workdps():
        for n0 in (1, 3):
            assert abs(eichler_limit(P237, EllTriple(1, 1, 1), n0, 1, ctx50)) < ctx50.tolerance
            value = eichler_limit(P237, EllTriple(1, 1, 3), n0, 1, ctx50)
            want = -2 * mp.expjpi(to_mpf(Fraction(-47 * n0, 84) % 2))
            assert abs(value - want) < ctx50.tolerance


@pytest.mark.parametrize("digits", (40, 100))
@pytest.mark.parametrize("p", (P235, P237, P345, P358, P579), ids=lambda p: str(p.p))
def test_eichler_limit_matches_per_term_oracle(p, digits):
    # every canonical ell, m of both signs and a level sharing factors with P
    ctx = PrecisionContext(digits)
    for ell in enumerate_triples(p):
        for m in (1, -1, 2, 5):
            for n in (1, 2, 3, 4, 17, 60, 139):
                if math.gcd(m, n) > 1:
                    continue
                value = eichler_limit(p, ell, m, n, ctx)
                oracle = eichler_limit_per_term(p, ell, m, n, ctx)
                with ctx.workdps():
                    assert abs(value - oracle) < ctx.tolerance, (ell, m, n)


@pytest.mark.parametrize(
    "ps, n, digits",
    [((2, 3, 7), 1000, 100), ((7, 11, 13), 1000, 100), ((2, 3, 7), 5000, 110)],
    ids=("ps0", "ps1", "ps2"),
)
def test_eichler_limit_error_within_stated_bound(ps, n, digits, ctx50):
    # (1 + |value|) u, u = 2^-prec, against the per-term sum at about twice the digits
    p, ell = BrieskornTriple(*ps), EllTriple(1, 1, 1)
    value = eichler_limit(p, ell, 1, n, ctx50)
    reference = eichler_limit_per_term(p, ell, 1, n, PrecisionContext(digits))
    with ctx50.workdps():
        bound = (1 + abs(value)) * mp.mpf(2) ** -mp.prec
    with mp.workdps(digits + 15):
        assert abs(value - reference) < bound


def _count_exponentials(monkeypatch) -> list:
    # names each root of unity a call takes: exactmath._unit_root, which reads
    # mpmath's kernel on raw tuples, and mpmath's own expjpi, cospi and sinpi
    calls = []
    for owner, name in ((exactmath, "_unit_root"), (mp, "expjpi"), (mp, "cospi"), (mp, "sinpi")):
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("ps", ((2, 3, 7), (7, 11, 13)))
def test_eichler_limit_takes_one_exponential(ps, monkeypatch, ctx50):
    # the n-th roots and the T-phase are powers of one 4Pn-th root, whatever n;
    # a per-term kernel would take 4n roots, and no root enters mpmath's wrapper
    p, ell = BrieskornTriple(*ps), EllTriple(1, 1, 1)
    calls = _count_exponentials(monkeypatch)
    for n in (5, 1000, 20000):
        calls.clear()
        eichler_limit(p, ell, 1, n, ctx50)
        assert calls == ["_unit_root"], (n, calls)


def _t_phase_cases():
    # every canonical ell of the dominant manifolds, then seeded ells of
    # fat triples and of thin (2,3,p)
    for ps in DOMINANT_MANIFOLDS:
        p = BrieskornTriple(*ps)
        yield from ((p, ell) for ell in enumerate_triples(p))
    rng = random.Random(20261018)
    fat = [ps for ps in coprime_triples(3000) if ps[0] >= 5]
    thin = [(2, 3, q) for q in range(1001, 200000, 2) if q % 3]
    for ps in rng.sample(fat, 8) + rng.sample(thin, 8):
        p = BrieskornTriple(*ps)
        for _ in range(10):
            yield p, EllTriple(*(rng.randrange(1, pk) for pk in p.p))


def test_t_phase_identity_is_checked(monkeypatch, ctx50):
    # every support residue j has j^2 = t_numerator mod 4P, which eichler_limit
    # relies on for its one phase; a wrong numerator raises ArithmeticError
    cases = list(_t_phase_cases())
    for p, ell in cases:
        t = modularform.t_numerator(p, ell)
        for r, _ in build_chi(p, ell).signed_support:
            assert (r * r - t) % (4 * p.P) == 0, (p, ell, r)
        eichler_limit(p, ell, 1, 1, ctx50)
    real = modularform.t_numerator
    monkeypatch.setattr(modularform, "t_numerator", lambda p, ell: (real(p, ell) + 1) % (4 * p.P))
    for p, ell in cases:
        with pytest.raises(ArithmeticError):
            eichler_limit(p, ell, 1, 1, ctx50)


# ------------------------------------------------------------------- phi_hat


def test_phi_hat_rejects_upper_half_plane(ctx50):
    with pytest.raises(ValueError):
        phi_hat(P237, EllTriple(1, 1, 1), mp.mpc(0, 1), ctx50)


def test_phi_hat_decays_far_below(ctx50):
    with ctx50.workdps():
        value = phi_hat(P237, EllTriple(1, 1, 1), mp.mpc(0, -4000), ctx50)
        assert abs(value) < ctx50.tolerance


def test_phi_hat_precision_self_consistency():
    ctx_lo, ctx_hi = PrecisionContext(30), PrecisionContext(60)
    with ctx_hi.workdps():
        z = mp.mpc(0, -1)
        lo = phi_hat(P237, EllTriple(1, 1, 1), z, ctx_lo)
        hi = phi_hat(P237, EllTriple(1, 1, 1), z, ctx_hi)
        assert abs(lo - hi) < ctx_lo.tolerance


def test_phi_hat_approaches_eichler_limit_at_third(ctx30):
    # moderate depth: linear-in-|y| error, then the extrapolated limit to 1e-12
    with ctx30.workdps():
        target = eichler_limit(P237, EllTriple(1, 1, 1), 1, 3, ctx30)
        errs = []
        for y in (1e-4, 1e-5):
            value = phi_hat(
                P237, EllTriple(1, 1, 1), mp.mpc(to_mpf(Fraction(1, 3)), -y), ctx30
            )
            errs.append(abs(value - target))
        assert errs[1] < errs[0] / 5  # improving as y -> 0
        extrapolated = vertical_limit(P237, EllTriple(1, 1, 1), 1, 3, ctx30, levels=7)
        assert abs(extrapolated - target) < mp.mpf("1e-12")


def test_phi_hat_vertical_limits_random_rationals(ctx30):
    rng = random.Random(20260808)
    checked = 0
    with ctx30.workdps():
        while checked < 5:
            n = rng.randint(2, 7)
            m = rng.choice([x for x in range(-8, 9) if x and math.gcd(x, n) == 1])
            target = eichler_limit(P237, EllTriple(1, 1, 2), m, n, ctx30)
            # ladder start shrinks with n: the approach-error scale grows ~ n^2
            value = vertical_limit(
                P237, EllTriple(1, 1, 2), m, n, ctx30, y0=2e-3 / n**2, levels=6
            )
            assert abs(value - target) < mp.mpf("1e-8")
            checked += 1


# --------------------------------------------------- nearly modular expansion


# the trivial row of the Poincare sphere and two rows off (1, 1, 1)
NEARLY_MODULAR_ROWS = (
    (P235, EllTriple(1, 1, 1)),
    (P237, EllTriple(1, 1, 3)),
    (P345, EllTriple(1, 1, 2)),
)


def _residual(p, ell, n, k_max, ctx):
    # |eichler_limit - dominant - tail| of the expansion's parts, at the working precision
    nm = nearly_modular_expansion(p, ell, n, k_max, ctx)
    exact = eichler_limit(p, ell, 1, n, ctx)
    with ctx.workdps():
        return abs(exact - nm.dominant - nm.tail)


def test_nearly_modular_residual_below_last_term(ctx50):
    for p, ell in NEARLY_MODULAR_ROWS:
        residual = _residual(p, ell, 100, 4, ctx50)
        with ctx50.workdps():
            last = abs(eichler_tail_term(p, eichler_tail(p, ell, 4), 100, 4, ctx50))
            assert residual < last, (p, ell)


def test_nearly_modular_residual_scaling(ctx50):
    # truncation error drops like N^-(K+1); allow a factor-two window
    k = 3
    for p, ell in NEARLY_MODULAR_ROWS:
        with ctx50.workdps():
            res = {n: _residual(p, ell, n, k, ctx50) for n in (50, 100, 200)}
            for a, b in ((50, 100), (100, 200)):
                ratio = res[b] / res[a]
                assert mp.mpf(1) / 32 < ratio < mp.mpf(1) / 8, (p, ell, a, b, ratio)


def test_nearly_modular_inadmissible_rows_drop_out(ctx50):
    # triples with vanishing integer limit contribute nothing to the dominant
    # term; for (2,3,7) only two of three columns survive
    md = modular_data(P237, ctx50)
    with ctx50.workdps():
        nm = nearly_modular_expansion(P237, EllTriple(1, 1, 1), 40, 3, ctx50)
        manual = mp.mpc(0)
        for j, ellp in enumerate(md.triples):
            amp, r = eichler_integer_data(P237, ellp)
            if amp == 0:
                assert ellp == EllTriple(1, 1, 1)
                continue
            manual += md.s_row(EllTriple(1, 1, 1))[j] * (-2) * mp.expjpi(to_mpf((-r * 40) % 2))
        manual *= -mp.sqrt(mp.mpf(40)) * mp.expjpi(mp.mpf(-0.25))
        assert abs(nm.dominant - manual) < ctx50.tolerance


DOMINANT_MANIFOLDS = (
    (2, 3, 5), (2, 3, 7), (3, 4, 5), (2, 5, 7), (3, 5, 8), (4, 5, 7), (5, 7, 9), (2, 3, 13),
    (7, 10, 11),
)


@pytest.mark.parametrize("ps", DOMINANT_MANIFOLDS)
def test_dominant_matches_per_column_form(ps, ctx50):
    # per-fibre phase tables summed run by run against the full S-row
    # filtered by ell_condition with one expjpi per column.  The row fixes
    # the per-fibre signs, so every row is checked where D <= 18, (1,1,1)
    # and a middle row elsewhere.
    p = BrieskornTriple(*ps)
    triples = tuple(enumerate_triples(p))
    rows = triples if p.D <= 18 else (EllTriple(1, 1, 1), triples[len(triples) // 2])
    for ell in rows:
        for n in (3, 4, 5, 6, 7, 50):
            got = nearly_modular_expansion(p, ell, n, 0, ctx50).dominant
            want = dominant_per_column(p, ell, n, ctx50)
            with ctx50.workdps():
                assert abs(got - want) < ctx50.tolerance, (ps, ell, n)



@lru_cache(maxsize=None)
def _sinpi_ratio(num: int, den: int, digits: int):
    with mp.workdps(digits):
        return mp.sinpi(mp.mpf(num) / den)


def _dominant_reference(p, ell, phases, digits):
    # sqrt(32/P) times the sum over the admissible columns of the S sign, the
    # sines by sinpi and the given phase; signs from the reference parity
    with mp.workdps(digits):
        total = mp.mpc(0)
        for lp, phase in zip(admissible_triples(p)[0], phases):
            sines = mp.mpf(1)
            for a, b, c, pk in zip(ell, lp, p.cofactors, p.p):
                sines *= _sinpi_ratio(c * a * b % (2 * pk), pk, digits)
            total += (-sines if s_parity_reference(p, ell, lp) else sines) * phase
        return mp.sqrt(mp.mpf(32) / p.P) * total


@pytest.mark.parametrize("ps, sample", (((2, 3, 5), None), ((7, 11, 13), 40), ((2, 3, 1009), 50)))
def test_dominant_integers_within_stated_bound(ps, sample, ctx50):
    # the docstring bound 16 gamma 2^-bits on G / 2^(6 bits) against the columns
    # at 20 more digits over sqrt(32/P), phases by expjpi of the Fraction
    # T-exponent; the reference reads no row of modular_data
    p, digits = BrieskornTriple(*ps), ctx50.working_digits + 20
    rows = tuple(enumerate_triples(p))
    rows = rows if sample is None else random.Random(sum(ps)).sample(rows, sample)
    md = modular_data(p, ctx50)
    gamma = admissible_count(p)
    for n in (4, 5, 50):
        with mp.workdps(digits):
            phases = [
                mp.expjpi(to_mpf((-n * t_exponent_fraction(p, lp)) % 2))
                for lp in admissible_triples(p)[0]
            ]
        for ell in rows:
            real, imag, q = modularform._dominant_integers(md, ell, n)
            reference = _dominant_reference(p, ell, phases, digits)
            with mp.workdps(digits):
                value = mp.mpc(mp.ldexp(real, -6 * md.bits), mp.ldexp(imag, -6 * md.bits))
                exact = mp.mpc(0, 1) ** q * reference / mp.sqrt(mp.mpf(32) / p.P)
                assert abs(value - exact) < 16 * gamma * mp.mpf(2) ** -md.bits, (ell, n)


def test_eichler_tail_coefficients_exact():
    tail = eichler_tail(P235, EllTriple(1, 1, 1), 3)
    chi = build_chi(P235, EllTriple(1, 1, 1))
    for k in range(4):
        assert tail[k] == l_function_value_bernoulli(chi, k) / math.factorial(k)
    assert tail[0] == l_function_value_bernoulli(chi, 0)


def test_eichler_tail_rejects_orders_out_of_range(ctx50):
    # a negative order, and a k past the coefficients in the oracle term,
    # raise instead of giving an empty tuple or wrapping to the last term
    ell = EllTriple(1, 1, 1)
    with pytest.raises(ValueError):
        eichler_tail(P235, ell, -2)
    tail = eichler_tail(P235, ell, 3)
    for k in (-1, 4):
        with pytest.raises(ValueError):
            eichler_tail_term(P235, tail, 10, k, ctx50)


# ---------------------------------------------- dominant and tail, rounded once


@pytest.mark.parametrize("ps, sample", (((2, 3, 5), None), ((7, 11, 13), 12), ((2, 3, 1009), 12)))
@pytest.mark.parametrize("digits", (30, 51))
def test_dominant_within_stated_bound(ps, sample, digits):
    # (46 gamma sqrt(n/P) / p_3 + 2 |dominant|) u against 2 sqrt(n) e^{-pi i/4}
    # times the column sum at 20 more digits, sines by sinpi
    ctx = PrecisionContext(digits)
    p, ref_digits = BrieskornTriple(*ps), ctx.working_digits + 20
    rows = tuple(enumerate_triples(p))
    rows = rows if sample is None else random.Random(sum(ps)).sample(rows, sample)
    gamma = admissible_count(p)
    for n in (3, 6, 50, 5000):
        with mp.workdps(ref_digits):
            phases = [
                mp.expjpi(to_mpf((-n * t_exponent_fraction(p, lp)) % 2))
                for lp in admissible_triples(p)[0]
            ]
        for ell in rows:
            value = nearly_modular_expansion(p, ell, n, 0, ctx).dominant
            with ctx.workdps():
                u = mp.mpf(2) ** -mp.prec
                bound = (46 * gamma * mp.sqrt(mp.mpf(n) / p.P) / p.p3 + 2 * abs(value)) * u
            with mp.workdps(ref_digits):
                front = 2 * mp.sqrt(n) * mp.expjpi(mp.mpf(-1) / 4)
                reference = front * _dominant_reference(p, ell, phases, ref_digits)
                assert abs(value - reference) < bound, (ell, n)


TAIL_CASES = (
    ((2, 3, 5), (1, 1, 1), 200, 100),  # the --K cap
    ((2, 3, 7), (1, 1, 1), 5000, 80),  # huge coefficients, tiny pi / 2Pn
    ((2, 3, 7), (1, 1, 3), 3, 100),
    ((7, 11, 13), (1, 1, 1), 4, 3),
    ((7, 11, 13), (3, 5, 6), 6, 3),
    ((5, 7, 9), (2, 3, 4), 5, 0),
)
# the (1, 1, 1) column at both ends of every range: K from the first term to
# the --K cap, N from the least level to 10^6
TAIL_GRID = tuple(
    (ps, (1, 1, 1), n, k_max)
    for ps in ((2, 3, 5), (7, 11, 13))
    for n in (3, 10**6)
    for k_max in (0, 1, 6, 100)
)


@pytest.mark.parametrize("ps, ell, n, k_max", TAIL_CASES + TAIL_GRID)
@pytest.mark.parametrize("digits", (30, 51, 10**4))
def test_tail_within_stated_bound(ps, ell, n, k_max, digits):
    # each component within 3 u times the sum of its terms' magnitudes, against
    # the terms at 20 more digits
    ctx = PrecisionContext(digits)
    p, ell = BrieskornTriple(*ps), EllTriple(*ell)
    tail = nearly_modular_expansion(p, ell, n, k_max, ctx).tail
    coefficients = eichler_tail(p, ell, k_max)
    with ctx.workdps():
        u = mp.mpf(2) ** -mp.prec
    with mp.workdps(ctx.working_digits + 20):
        x = mp.pi / (2 * p.P * n)
        terms = [to_mpf(c) * x**k for k, c in enumerate(coefficients)]
        signed = [term * (-1) ** (k // 2) for k, term in enumerate(terms)]
        for part, parity in ((tail.real, 0), (tail.imag, 1)):
            reference = sum(signed[parity::2], mp.mpf(0))
            magnitude = sum((abs(t) for t in terms[parity::2]), mp.mpf(0))
            assert abs(part - reference) <= 3 * u * magnitude, (parity, part, reference)
    assert k_max < 80 or max(map(abs, coefficients)) > 10**100  # the large cases are large


@pytest.mark.parametrize("ps", ((2, 3, 7), (7, 11, 13)))
def test_nearly_modular_expansion_takes_only_the_limits_one_exponential(
    ps, monkeypatch, ctx50
):
    # the dominant is scaled in integers, the tail is a Horner sum in pi, and the
    # O(n) eichler_limit is the caller's: no exponential and no mp.sqrt, whatever n and k_max
    p, ell = BrieskornTriple(*ps), EllTriple(1, 1, 1)
    modular_data(p, ctx50)
    calls = _count_exponentials(monkeypatch)
    real_sqrt = mp.sqrt
    monkeypatch.setattr(mp, "sqrt", lambda *args, **kwargs: calls.append("sqrt") or real_sqrt(
        *args, **kwargs))
    for n in (3, 5, 1000, 20000):
        for k_max in (0, 3, 100):
            calls.clear()
            nearly_modular_expansion(p, ell, n, k_max, ctx50)
            assert calls == [], (n, k_max, calls)
