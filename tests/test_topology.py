from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from brieskorn_wrt import (
    BrieskornTriple,
    EllTriple,
    PrecisionContext,
    admissible_triples,
    casson,
    chern_simons,
    enumerate_triples,
    flat_connections,
    modular_data,
    phi_invariant,
    verify_s_torsion,
)
from brieskorn_wrt.chi import t_numerator
from conftest import coprime_triples
from oracles import (
    chern_simons_fraction,
    conjugacy_angles,
    dedekind_sum,
    dedekind_sum_cotangent,
    euler_number,
    spectral_flow_per_record,
    to_mpf,
)

P235 = BrieskornTriple(2, 3, 5)
P237 = BrieskornTriple(2, 3, 7)
P345 = BrieskornTriple(3, 4, 5)

triple_strategy = st.sampled_from(coprime_triples(400))


# -------------------------------------------------------------- phi and Casson


def test_phi_value_235():
    assert phi_invariant(P235) == Fraction(181, 30)


def test_phi_symmetric_under_permutation():
    # the constructor sorts, so evaluate the defining formula directly
    import itertools

    for perm in itertools.permutations((2, 3, 7)):
        p1, p2, p3 = perm
        value = (
            3
            - Fraction(1, p1 * p2 * p3)
            + 12
            * (
                dedekind_sum(p2 * p3, p1)
                + dedekind_sum(p1 * p3, p2)
                + dedekind_sum(p1 * p2, p3)
            )
        )
        assert value == phi_invariant(P237)


def test_phi_dual_dedekind_routes(ctx50):
    # reciprocity and cotangent-form Dedekind sums give the same phi
    p1, p2, p3 = 2, 3, 7
    exact = phi_invariant(P237)
    with ctx50.workdps():
        numeric = (
            3
            - mp.mpf(1) / (p1 * p2 * p3)
            + 12
            * (
                dedekind_sum_cotangent(p2 * p3, p1 if p1 > 1 else 2, ctx50)
                + dedekind_sum_cotangent(p1 * p3, p2, ctx50)
                + dedekind_sum_cotangent(p1 * p2, p3, ctx50)
            )
        )
        assert abs(numeric - mp.mpf(exact.numerator) / exact.denominator) < ctx50.tolerance


def test_casson_quoted_values():
    assert casson(P237) == -1
    assert casson(P345) == -2
    assert casson(P235) == -1


@settings(max_examples=60, deadline=None)
@given(triple_strategy)
def test_casson_is_minus_half_gamma_and_integer(ps):
    p = BrieskornTriple(*ps)
    lam = casson(p)
    assert lam == -Fraction(admissible_triples(p)[1], 2)
    assert lam.denominator == 1


def test_casson_counts_the_columns_whose_limit_at_an_integer_survives():
    # the paper's count: column l' has limit e^{pi i m t / 2P} V0(l') / P at an
    # integer m, V0(l') = sum chi_l'(r) (P - r) over its support r < P, and V0 is
    # -2P on the admissible columns and 0 on every other canonical column, so
    # -2 casson of them survive.  chi_l' is -eps1 eps2 eps3 at the eight residues
    # P + sum eps_j l'_j c_j mod 2P, read here and not through build_chi's cache
    for ps in coprime_triples(1000):
        p = BrieskornTriple(*ps)
        admissible = set(admissible_triples(p)[0])
        surviving = 0
        for lp in enumerate_triples(p):
            v0 = 0
            for eps in product((1, -1), repeat=3):
                r = (p.P + sum(e * l * c for e, l, c in zip(eps, lp, p.cofactors))) % (2 * p.P)
                if r < p.P:
                    v0 -= eps[0] * eps[1] * eps[2] * (p.P - r)
            assert v0 == (-2 * p.P if lp in admissible else 0), (ps, lp, v0, lp in admissible)
            surviving += v0 != 0
        assert surviving == -2 * casson(p), ps


# ------------------------------------------------------------- flat connections


def test_cs_spectra_quoted():
    assert [r.cs for r in flat_connections(P235)] == [
        Fraction(-1, 120),
        Fraction(-49, 120),
    ]
    assert [r.cs for r in flat_connections(P237)] == [
        Fraction(-25, 168),
        Fraction(47, 168),
    ]
    assert [r.cs for r in flat_connections(P345)] == [
        Fraction(119, 240),
        Fraction(-49, 240),
        Fraction(-1, 60),
        Fraction(11, 60),
    ]


def test_spectral_flows_quoted():
    assert [r.spectral_flow for r in flat_connections(P235)] == [4, 0]
    assert [r.spectral_flow for r in flat_connections(P237)] == [6, 2]
    assert [r.spectral_flow for r in flat_connections(P345)] == [2, 4, 6, 0]


def test_records_follow_enumeration_order():
    records = flat_connections(P345)
    assert [r.triple for r in records] == [
        (1, 1, 3),
        (1, 1, 4),
        (1, 2, 1),
        (1, 2, 2),
    ]


def test_cs_ties_to_t_exponent_exactly():
    for p in (P235, P237, P345):
        for record in flat_connections(p):
            r = Fraction(t_numerator(p, record.triple), 2 * p.P)
            assert (record.cs + r / 2) % 1 == 0
            # and the quadratic form directly
            s = 1 + sum(
                Fraction(l, pk) for l, pk in zip(record.triple, p.p)
            )
            assert (record.cs + Fraction(p.P, 4) * s * s) % 1 == 0
            assert Fraction(-1, 2) < record.cs <= Fraction(1, 2)


def test_conjugacy_angles_round_trip():
    for p in (P235, P237, P345):
        for record in flat_connections(p):
            ells = []
            for angle, pk in zip(record.conjugacy_angles, p.p):
                assert 0 < angle < 1
                l = pk - angle * pk
                assert l.denominator == 1
                ells.append(int(l))
            assert tuple(ells) == record.triple


def test_torsion_matches_s_magnitude(ctx50):
    # |sqrt(2) S entry| equals the torsion amplitude
    for p in (P235, P237, P345):
        md = modular_data(p, ctx50)
        with ctx50.workdps():
            for record in flat_connections(p, ctx50):
                s_val = md.s_value(EllTriple(1, 1, 1), record.triple)
                assert (
                    abs(abs(mp.sqrt(mp.mpf(2)) * s_val) - record.torsion_sqrt)
                    < ctx50.tolerance
                )


def test_s_torsion_identity_residuals(ctx50):
    # the tolerance the torsion suite compares against
    for p in (P235, P237, P345):
        assert verify_s_torsion(p, ctx50) <= ctx50.tolerance


def spectral_flow_cotangent(p, ell, ctx):
    """Oracle: the floating cotangent sum, snapped to an integer within 1e-10.

    -3 - 2e^2/P - sum_j (2/p_j) sum_k cot(pi k P/p_j^2) cot(pi k/p_j) sin^2(pi k e/p_j)
    """
    e = euler_number(p, ell)
    with ctx.workdps():
        cot_total = mp.mpf(0)
        for pk in p.p:
            inner = mp.mpf(0)
            for k in range(1, pk):
                a1 = Fraction(k * p.P, pk * pk) % 1
                assert a1 != 0
                a2 = Fraction(k, pk) % 1
                s = mp.sinpi(to_mpf(Fraction(k * e, pk) % 1))
                inner += (
                    (mp.cospi(to_mpf(a1)) / mp.sinpi(to_mpf(a1)))
                    * (mp.cospi(to_mpf(a2)) / mp.sinpi(to_mpf(a2)))
                    * s
                    * s
                )
            cot_total += 2 * inner / pk
        total = -3 - (to_mpf(Fraction(2 * e * e, p.P)) + cot_total)
        snapped = int(mp.nint(total))
        assert abs(total - snapped) < 1e-10, (p.p, tuple(ell), total)
    return snapped % 8


ORACLE_PMAX = 315  # every coprime triple up to (5,7,9)


def test_spectral_flow_matches_cotangent_sum(ctx30):
    # a formula with c_j in place of c_j^{-1} still agrees on (2,3,5),
    # (2,3,7) and (3,5,8), where c_j^2 = 1 mod p_j; (3,4,5), (5,7,9) and
    # most of the range tell them apart
    triples = coprime_triples(ORACLE_PMAX)
    assert {(2, 3, 5), (3, 4, 5), (3, 5, 8), (5, 7, 9)} <= set(triples)
    for ps in triples:
        p = BrieskornTriple(*ps)
        for record in flat_connections(p):
            ell = record.triple
            assert record.spectral_flow == spectral_flow_cotangent(p, ell, ctx30), (ps, tuple(ell))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([ps for ps in coprime_triples(3000) if ps[0] * ps[1] * ps[2] > ORACLE_PMAX]),
    st.data(),
)
def test_spectral_flow_matches_cotangent_sum_above_bound(ps, data):
    p = BrieskornTriple(*ps)
    record = data.draw(st.sampled_from(flat_connections(p)))
    expected = spectral_flow_cotangent(p, record.triple, PrecisionContext(30))
    assert record.spectral_flow == expected


def test_table_forms_match_retired_per_record_forms():
    # every record of the run walk against the per-record forms: the kernel
    # tables against the O(p_j) loop, the stepped CS numerator against
    # chern_simons and the Fraction T-exponent, the angle tables against the
    # per-record angles, on every admissible triple with P <= 3000, in the
    # order of the admissible view
    count = 0
    for ps in coprime_triples(3000):
        p = BrieskornTriple(*ps)
        records = flat_connections(p)
        assert [record.triple for record in records] == list(admissible_triples(p)[0]), ps
        for record in records:
            ell = record.triple
            assert record.spectral_flow == spectral_flow_per_record(p, ell), (ps, ell)
            assert record.cs == chern_simons(p, ell) == chern_simons_fraction(p, ell), (ps, ell)
            assert record.conjugacy_angles == conjugacy_angles(p, ell), (ps, ell)
            count += 1
    assert count > 200_000


def test_spectral_flow_raises_on_a_fraction(monkeypatch):
    # a non-integer total is a structural fault, never rounded; the first
    # record's triple is named in the message as a plain tuple
    import brieskorn_wrt.topology as topology

    offset, kernels = topology._spectral_flow_tables(P235)
    monkeypatch.setattr(topology, "_spectral_flow_tables", lambda p: (offset + 1, kernels))
    with pytest.raises(ArithmeticError, match=r"p=\(2, 3, 5\), ell=\(1, 1, 1\)"):
        flat_connections(P235)


def test_spectral_phase_is_fourth_root_of_unity():
    for p in (P235, P237, P345):
        for record in flat_connections(p):
            assert record.spectral_flow in range(8)
            assert record.spectral_flow % 2 == 0  # phase lands in {1, -1, i, -i}


def test_chern_simons_window():
    cs = chern_simons(P237, EllTriple(1, 1, 3))
    assert cs == Fraction(47, 168)
    (record,) = [r for r in flat_connections(P237) if r.triple == (1, 1, 3)]
    assert record.conjugacy_angles == (
        Fraction(1, 2),
        Fraction(2, 3),
        Fraction(4, 7),
    )


# ------------------------------------------------- torsion amplitude, rounded once


def _torsion_reference(p, ell, digits):
    # (8/sqrt(P)) prod_j |sin(pi P l_j / p_j^2)| straight from sinpi of the angles
    with mp.workdps(digits):
        value = 8 / mp.sqrt(p.P)
        for l, pk in zip(ell, p.p):
            value *= abs(mp.sinpi(mp.mpf(p.P * l) / (pk * pk)))
        return value


@pytest.mark.parametrize(
    "ps", ((2, 3, 5), (2, 3, 7), (5, 7, 9), (7, 11, 13), (2, 3, 1009), (3, 4, 5), (4, 5, 7))
)
@pytest.mark.parametrize("digits", (15, 30, 51))
def test_torsion_within_stated_bound(ps, digits):
    # every record's amplitude within 2 u of the amplitude at 20 more digits;
    # (3,4,5) and (4,5,7) have runs cut by the tie rules 2 l2 = p2 and 2 l1 = p1
    p, ctx = BrieskornTriple(*ps), PrecisionContext(digits)
    records = flat_connections(p, ctx)
    assert records
    with ctx.workdps():
        u = mp.mpf(2) ** -mp.prec
    for record in records:
        reference = _torsion_reference(p, record.triple, ctx.working_digits + 20)
        with mp.workdps(ctx.working_digits + 20):
            assert abs(record.torsion_sqrt - reference) <= 2 * u * reference, record.triple


def test_flat_records_share_one_angle_per_residue():
    # the conjugacy angles are one table of Fractions per fibre, equal to the
    # per-record formula
    p = BrieskornTriple(7, 11, 13)
    records = flat_connections(p)
    for record in records:
        assert record.conjugacy_angles == conjugacy_angles(p, record.triple)
    by_value = {}
    for record in records:
        for angle in record.conjugacy_angles:
            assert by_value.setdefault(angle, angle) is angle
