"""The quantum invariant: tau_N, its surgery-sum cross-check, and its asymptotics.

The level-N invariant is computed through the paper's Theorem 5.1: the
normalized tau_N equals half the Eichler-integral limit of the (1, 1, 1)
false theta series at 1/N, plus e^{pi i/60N} for the Poincare sphere.  That
finite sum has 4N terms whatever the triple.  The closed cyclotomic surgery
sum, whose summand is even under n -> 2PN - n, runs over 0 < n < PN (PN - P
terms, multiples of N excluded by index arithmetic) and is kept as
``rozansky_normalized``, the independent route that the ``theorem51`` suite
and the tests compare against; the asymptotics normalize the (1, 1, 1)
nearly modular expansion the same way.  The Eichler limit is one T-phase
times exact integer weights summed against a fixed-point table of N-th roots
of unity (its rounding bound is in ``modularform.eichler_limit``), and
``tau_prefactor`` is one sine and one phase; the surgery sum reads all its
sines and phases off one table of 4PN-th roots of unity and sums in
high-precision floating point.
``WrtResult.error_budget`` is still term_count * ulp.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp

from .chi import BrieskornTriple, EllTriple, dedekind_triple_numerator
from .exactmath import DEFAULT_CONTEXT, PrecisionContext, ensure_finite, root_table
from .modularform import AsymptoticApprox, eichler_limit, nearly_modular_expansion


@dataclass(frozen=True)
class WrtResult:
    """Level-N invariant with its normalizations and summation metadata."""

    level: int
    normalized: object
    tau: object
    z_witten: object
    term_count: int
    error_budget: object


def _signed_sines(order: int) -> tuple:
    # sin(2 pi k / order), 0 <= k < order even, off one root table whose extra bits
    # keep the least sine, over 4/order, exact; the second half negates the first
    bits = mp.prec + order.bit_length()
    half = [mp.mpf((s, -bits)) for s in root_table(order, bits)[1][: order // 2]]
    return tuple(half + [-v for v in half])


def rozansky_normalized(
    p: BrieskornTriple,
    n_level: int,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
):
    """Normalized invariant e^{2 pi i (phi/4 - 1/2)/N} (e^{2 pi i/N} - 1) tau_N.

    Evaluated as the closed surgery sum
    (e^{pi i/4} / (2 sqrt(2 P N))) * sum_{n, N !| n} e^{-pi i n^2/(2PN)}
    * prod_j 2i sin(n pi/(N p_j)) / (2i sin(n pi/N)).

    This O(PN) sum is the cross-check route: ``tau_n`` computes the same
    value through the 4N-term Eichler limit, and the ``theorem51`` suite
    and the tests compare the two.
    """
    if n_level < 2:
        raise ValueError("level must be at least 2")
    with ctx.workdps():
        four_pn = 4 * p.P * n_level
        sin = _signed_sines(four_pn)  # sin(2 pi e / 4PN)
        # sin(pi n / N p_k) is entry 2 c_k n, and sin(pi n / N) entry 2 P n
        doubled = [2 * c for c in (*p.cofactors, p.P)]
        real = imag = mp.mpf(0)
        for n in range(1, p.P * n_level):
            if n % n_level == 0:
                continue
            s1, s2, s3, den = (sin[d * n % four_pn] for d in doubled)
            value = s1 * s2 * s3 / den
            e = n * n % four_pn  # e^{-pi i n^2 / 2PN} = cos - i sin(2 pi e / 4PN)
            real += value * sin[(e + four_pn // 4) % four_pn]  # cos t = sin(t + pi / 2)
            imag -= value * sin[e]
        # prod of three (2i sin) over one (2i sin) contributes (2i)^2 = -4, and
        # the summand is even under n -> 2PN - n (three sines over one change
        # sign, the phase does not), so the half 0 < n < PN counts twice
        total = -8 * mp.mpc(real, imag)
        prefactor = mp.expjpi(mp.mpf(1) / 4) / (2 * mp.sqrt(mp.mpf(2) * p.P * n_level))
        return ensure_finite(+(prefactor * total))


def _theorem51_normalized(p: BrieskornTriple, limit, n_level: int):
    # Theorem 5.1: half a (1, 1, 1) quantity at 1/N, plus e^{pi i/60N} on
    # (2,3,5); called inside the caller's workdps()
    value = limit / 2
    if p.is_poincare:
        value += mp.expjpi(mp.mpf(1) / (60 * n_level))
    return ensure_finite(+value)


def tau_prefactor(p: BrieskornTriple, n_level: int, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """The factor e^{2 pi i (phi/4 - 1/2)/N} (e^{2 pi i/N} - 1) dividing tau_N out.

    With phi = (3P - 1 + T)/P, T = ``chi.dedekind_triple_numerator``, and
    e^{2 pi i/N} - 1 = 2i sin(pi/N) e^{pi i/N}, it is one sine and one phase:
    2i sin(pi/N) e^{pi i (3P - 1 + T)/2PN}.
    """
    two_pn = 2 * p.P * n_level
    numerator = (3 * p.P - 1 + dedekind_triple_numerator(p)) % (2 * two_pn)
    with ctx.workdps():
        sine = mp.sinpi(mp.mpf(1) / n_level)
        return ensure_finite(mp.mpc(0, 2 * sine) * mp.expjpi(mp.mpf(numerator) / two_pn))


def tau_n(
    p: BrieskornTriple,
    n_level: int,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
) -> WrtResult:
    """tau_N normalized to 1 on the three-sphere, plus the Witten quotient.

    The normalized value comes from the Eichler limit (Theorem 5.1).
    ``term_count`` is the 4N terms of that sum; the Poincare sphere's extra
    exponential is not counted.  The Witten-invariant value divides by
    sqrt(N/2)/sin(pi/N), the invariant of S^2 x S^1 at the same level
    (path-integral level k = N - 2).
    """
    if n_level < 3:
        raise ValueError("level must be at least 3")
    with ctx.workdps():
        limit = eichler_limit(p, EllTriple(1, 1, 1), 1, n_level, ctx)
        normalized = _theorem51_normalized(p, limit, n_level)
        tau = normalized / tau_prefactor(p, n_level, ctx)
        z = tau * mp.sinpi(mp.mpf(1) / n_level) / mp.sqrt(mp.mpf(n_level) / 2)
        term_count = 4 * n_level
        budget = mp.mpf(term_count) * mp.mpf(2) ** (-mp.prec + 2)
        return WrtResult(
            level=n_level,
            normalized=normalized,
            tau=ensure_finite(+tau),
            z_witten=ensure_finite(+z),
            term_count=term_count,
            error_budget=+budget,
        )


def asymptotic_approx(
    p: BrieskornTriple,
    n_level: int,
    k_max: int,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
) -> AsymptoticApprox:
    """Stationary-phase approximation of the normalized invariant.

    Half the (1, 1, 1) ``nearly_modular_expansion`` at 1/N: dominant =
    sqrt(N/i) sum_l S[(1,1,1)][l] e^{-pi i r(l) N} over admissible triples,
    tail = (1/2) sum_{k<=k_max} L(-2k, chi)/k! (pi i/(2PN))^k; tail and the
    exact value (that of ``tau_n``) gain e^{pi i/(60N)} on the Poincare sphere.
    """
    if n_level < 3:
        raise ValueError("level must be at least 3")
    expansion = nearly_modular_expansion(p, EllTriple(1, 1, 1), n_level, k_max, ctx)
    with ctx.workdps():
        dominant = expansion.dominant / 2
        tail = _theorem51_normalized(p, expansion.tail, n_level)
        exact = _theorem51_normalized(p, expansion.exact, n_level)
        return AsymptoticApprox(dominant, tail, exact, +abs(exact - dominant - tail))
