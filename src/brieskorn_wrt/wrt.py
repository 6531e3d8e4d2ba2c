"""The quantum invariant: tau_N, its surgery-sum cross-check, and its asymptotics.

The level-N invariant is computed through the paper's Theorem 5.1: the
normalized tau_N equals half the Eichler-integral limit of the (1, 1, 1) false
theta series at 1/N, plus e^{pi i/60N} for the Poincare sphere.  That limit is
one T-phase times one exact integer weight vector over the N-th roots of unity
(``modularform._limit_weights``), so tau_N itself is an exact element of
Z[zeta_N]: ``tau_coordinates`` turns the weights, laid out shifted, into the
integers c_k with tau_N = sum_k c_k zeta_N^k by one exact division by 2PN and
one prefix sum, each step's integrality checked.  ``tau_n`` evaluates the output
of ``tau_coordinates`` and its two normalizations in fixed point, every root a
power of one exponential e^{pi i/2PN} (``exactmath.root_power_sum``), and bounds
the result by the coordinates it sums.  The Eichler limit (same weights and
kernel) and ``rozansky_normalized``, the closed cyclotomic surgery sum, which
shares neither, are the routes that ``theorem51`` and the tests compare against.
The surgery summand is even under n -> 2PN - n, so it runs over 0 < n < PN
(PN - P terms, multiples of N excluded by index arithmetic) and reads every sine
and phase off one table of 4PN-th roots of unity.  The asymptotics normalize the
(1, 1, 1) nearly modular expansion as Theorem 5.1 does.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate, repeat
from typing import NamedTuple

from mpmath import mp

from .chi import BrieskornTriple, EllTriple, dedekind_triple_numerator, t_numerator
from .exactmath import (
    DEFAULT_CONTEXT,
    PrecisionContext,
    ensure_finite,
    root_power_sum,
    root_table,
)
from .modularform import _limit_weights, eichler_limit, nearly_modular_expansion


class WrtResult(NamedTuple):
    """Level-N invariant with its normalizations and summation metadata."""

    level: int
    normalized: object
    tau: object
    z_witten: object
    term_count: int
    error_budget: object


class AsymptoticApprox(NamedTuple):
    """dominant + tail of a limit at 1/N; abs_error = |exact - dominant - tail|."""

    dominant: object
    tail: object
    exact: object
    abs_error: object


def _signed_sines(order: int) -> tuple:
    # sin(2 pi k / order), 0 <= k < order even: the half row of one root table, whose
    # extra bits keep the least sine, over 4/order, exact, then that half negated
    bits = mp.prec + order.bit_length()
    half = [mp.mpf((s, -bits)) for s in root_table(order, bits)]
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
    value from the exact coordinates of tau_N, and the ``theorem51`` suite
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


def tau_coordinates(p: BrieskornTriple, n_level: int) -> list:
    """The integers c_0..c_{N-2} with tau_N = sum_k c_k zeta^k, zeta = e^{2 pi i/N}.

    Identity.  By ``modularform.eichler_limit`` the (1, 1, 1) limit at 1/N is
    e^{pi i t/2PN} V(zeta)/PN, V(x) = sum_e V[e] x^e the integer weights of
    ``_limit_weights`` and t = ``chi.t_numerator``.  Theorem 5.1 makes
    normalized = half of it (plus e^{pi i/60N} on Sigma(2,3,5)), and the prefactor
    normalized / tau_N = e^{2 pi i (phi/4 - 1/2)/N} (zeta - 1), phi = (3P - 1 + T)/P, is
    2i sin(pi/N) e^{pi i (3P - 1 + T)/2PN} = (zeta - 1) e^{pi i (P - 1 + T)/2PN},
    T = ``chi.dedekind_triple_numerator``.  So with t - P + 1 - T = 4Ps,

        tau_N = f(zeta) / (zeta - 1),   f(x) = x^s V(x) / 2PN mod x^N - 1,

    which ``_limit_weights`` builds by placing each weight V[e] at e + s.  On
    Sigma(2,3,5), where 1 - (P - 1 + T) = -4P, the Poincare term adds zeta^-1 /
    (zeta - 1), that is x^{N-1} to f.  If f(1) = 0, then g = -(prefix sums of f)
    solves (x - 1) g = f mod x^N - 1 with g_{N-1} = -f(1) = 0, so tau_N = g(zeta)
    and c_k = g_k.  The x^{N-1} term moves only g_{N-1}.

    Integrality.  f(1) = 0 is proved.  chi is odd of period 2P, so V(1), the sum
    over the support j < PN of chi(j) (PN - j), is -(N/2) sum_r chi(r) r over its
    eight residues r < 2P.  They are r = P + e_1 c_1 + e_2 c_2 + e_3 c_3 mod 2P,
    e_k = +-1, with chi(r) = +-e_1 e_2 e_3, so the sum is 0 when sum_k 1/p_k < 1
    (no r wraps) and 4P on Sigma(2,3,5) (two wrap): V(1)/2PN is 0, or -1.  That 4P
    divides t - P + 1 - T (a Dedekind-sum congruence) and that 2PN divides every
    V[e] (stronger than Habiro's tau_N in Z[zeta_N]) are checked, not proved.
    Each failing invariant raises ArithmeticError; a level below 2, ValueError.
    """
    if n_level < 2:
        raise ValueError("level must be at least 2")
    two_pn = 2 * p.P * n_level
    t = t_numerator(p, EllTriple(1, 1, 1))
    shift, rest = divmod(t - p.P + 1 - dedekind_triple_numerator(p), 4 * p.P)
    if rest:
        raise ArithmeticError(f"4P does not divide t - P + 1 - T on p={p.p}")
    weights = _limit_weights(p, EllTriple(1, 1, 1), t, 1, n_level, shift)  # x^s V(x)
    if any(map(operator.mod, weights, repeat(two_pn))):
        raise ArithmeticError(f"2PN does not divide the limit weights of p={p.p}, N={n_level}")
    quotients = map(operator.floordiv, weights, repeat(two_pn))
    coordinates = list(map(operator.neg, accumulate(quotients)))
    if coordinates.pop() != (1 if p.is_poincare else 0):  # g_{N-1} + 1 on Sigma(2,3,5)
        raise ArithmeticError(f"f(1) is not 0 on p={p.p}, N={n_level}")
    return coordinates


def tau_n(
    p: BrieskornTriple,
    n_level: int,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
) -> WrtResult:
    """tau_N normalized to 1 on the three-sphere, plus the Witten quotient.

    tau_N = sum_k c_k zeta^k over its exact coordinates (``tau_coordinates``).
    normalized = tau_N 2i sin(pi/N) e^{pi i (3P - 1 + T)/2PN} (Theorem 5.1's
    half Eichler limit, tau_N times its prefactor), and the Witten-invariant value
    z_witten = tau_N sin(pi/N) sqrt(2/N) divides by sqrt(N/2)/sin(pi/N), the
    invariant of S^2 x S^1 at the same level (path-integral level k = N - 2).
    Every root is a power of u = e^{pi i/2PN}: zeta = u^4P, e^{pi i/N} = u^2P
    and the phase u^(3P - 1 + T), all from one ``exactmath.root_power_sum``,
    so a call takes one exponential whatever N; sqrt(2/N) is ``math.isqrt``.

    Bound.  With C = sum_k |c_k| >= |tau_N| and eps = 2^-mp.prec, the sum and
    roots come at b = mp.prec + (C + 1).bit_length() + 3 bits, each part within
    2^-b, and sqrt(2/N) within 2^-b too.  The three values are exact integer
    products of at most three of them, within 5 (C + 1) 2^-b < eps, each rounded
    once to mp.prec bits, so each is within (1 + |value|) eps of its exact value.
    As |normalized| = 2 sin(pi/N) |tau_N| <= 2C and |z_witten| = sin(pi/N) sqrt(2/N)
    |tau_N| <= C, ``error_budget`` = (1 + 2C) eps bounds all three errors.
    ``term_count`` is the 4N terms of the Eichler limit, the Poincare term not counted.
    """
    if n_level < 3:
        raise ValueError("level must be at least 3")
    coordinates = tau_coordinates(p, n_level)
    order = 4 * p.P * n_level
    with ctx.workdps():
        total = sum(map(abs, coordinates))  # C
        bits = mp.prec + (total + 1).bit_length() + 3
        roots = (2 * p.P, 3 * p.P - 1 + dedekind_triple_numerator(p))  # e^{pi i/N}, the phase
        (x, y), (_, sine), (wx, wy) = root_power_sum(coordinates, order, 4 * p.P, roots, bits)
        root = math.isqrt((2 << 2 * bits) // n_level)  # sqrt(2/N) over 2^bits
        a, b = x * wx - y * wy, x * wy + y * wx  # tau_N e^{pi i (3P - 1 + T)/2PN}
        return WrtResult(
            level=n_level,
            normalized=mp.mpc((-2 * sine * b, -3 * bits), (2 * sine * a, -3 * bits)),
            tau=mp.mpc((x, -bits), (y, -bits)),
            z_witten=mp.mpc((x * sine * root, -3 * bits), (y * sine * root, -3 * bits)),
            term_count=4 * n_level,
            error_budget=mp.mpf((2 * total + 1, -mp.prec)),
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
    exact value (half the (1, 1, 1) ``eichler_limit`` at 1/N, that of
    ``tau_n``) gain e^{pi i/(60N)} on the Poincare sphere.  abs_error is
    |exact - dominant - tail| of these three.
    """
    if n_level < 3:
        raise ValueError("level must be at least 3")
    expansion = nearly_modular_expansion(p, EllTriple(1, 1, 1), n_level, k_max, ctx)
    with ctx.workdps():
        limit = eichler_limit(p, EllTriple(1, 1, 1), 1, n_level, ctx)
        dominant, tail, exact = expansion.dominant / 2, expansion.tail / 2, limit / 2
        if p.is_poincare:  # Theorem 5.1's e^{pi i/60N}, one phase for tail and exact
            phase = mp.expjpi(mp.mpf(1) / (60 * n_level))
            tail, exact = tail + phase, exact + phase
        tail, exact = ensure_finite(tail), ensure_finite(exact)
        return AsymptoticApprox(dominant, tail, exact, +abs(exact - dominant - tail))
