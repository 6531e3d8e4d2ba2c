"""The quantum invariant: tau_N, its SL(2, Z) cross-check, and its asymptotics.

The level-N invariant is computed through the paper's Theorem 5.1: the normalized tau_N is
half the Eichler-integral limit of the (1, 1, 1) false theta series at 1/N, plus e^{pi i/60N}
for the Poincare sphere.  That limit is one T-phase times exact integer weights over the N-th
roots of unity (``modularform._limit_weights``), so ``tau_coordinates`` reads off the integers
c_k with tau_N = sum_k c_k zeta_N^k, integrality checked, and ``tau_n`` evaluates them and
their two normalizations in fixed point from one exponential (``exactmath.root_power_sum``),
bounded by the coordinates it sums.  The Eichler limit (same weights and kernel) checks
normalized; ``jeffrey_tau``, which shares neither, checks tau_N itself from SU(2)'s level-N S
and T and the Seifert invariants alone.  The asymptotics normalize the (1, 1, 1) nearly
modular expansion as Theorem 5.1 does.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate, repeat
from typing import NamedTuple

from mpmath import mp

from .chi import BrieskornTriple, EllTriple, dedekind_triple_numerator, t_numerator
from .exactmath import DEFAULT_CONTEXT, PrecisionContext, root_power_sum, root_table
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


def _seifert_tau(fibres, n_level: int, ctx: PrecisionContext):
    """tau_N of the Seifert sphere with fibres (p_j, q_j), sum_j q_j P/p_j = 1, P = prod p_j.

    Jeffrey's formula, on colours 1..N-1 with S_ab = sqrt(2/N) sin(pi ab/N) and T_bb =
    e^{pi i (b^2 - 1)/2N}: a_i = ceil(a/b), (a, b) <- (b, a_i b - a) from (q_j, p_j) until
    b = 0 give W_j = T^{a_1} S ... T^{a_m} S with first column (q_j, p_j); s counts their S
    letters, J = sum_l prod_j W_j[l, 1] / (S_1l S_11), and tau_N = e^{pi i c (s - 2)/4}
    conj(J), c = 3(N - 2)/N.  Derivation: S^2 = 1 and (ST)^3 = e^{pi i c/4} S^2, so
    S~ = e^{-pi i c/4} S has (S~ T)^3 = S~^2, and J~, built with S~ in the words and the two
    divisions, is e^{-pi i c (s - 2)/4} J.  Each partial product of a ceiling word has a
    positive lower-left entry, so Rademacher's Phi(W_j) = sum_i a_i - 3(m - 1), and Jeffrey's
    framing phase in Phi (T_11 = 1 frees the T^b that completes W_j) leaves tau_N = conj(J~);
    the conjugate is the orientation, fixed by S^3 presented with a fibre p = 1 giving 1.

    S_ab is entry 2ab of one table sin(pi k/2N), e^{pi i k/2N} entry k + N plus i entry k.
    Each column, T^a (S column) from the right, costs O(N^2) a letter, keeps norm 1 (S and T
    are unitary) and gains about N 2^-prec; sum_l |prod_j W_j[l, 1]| <= 1 and S_1l S_11 >=
    8/N^3, so tau_N is within s N^4 2^-prec, under 10^-decimal_digits while s N^4 < 10^15.
    """
    with ctx.workdps():
        order, colours = 4 * n_level, range(1, n_level)
        sin = _signed_sines(order)  # sin(2 pi k / 4N)
        root = [mp.mpc(sin[(k + n_level) % order], sin[k]) for k in range(order)]
        rows = [[sin[2 * a * b % order] for b in colours] for a in colours]  # S / sqrt(2/N)
        product, letters = [mp.mpc(1)] * (n_level - 1), 0
        for p, q in fibres:
            word, column = [], [mp.mpc(b == 1) for b in colours]  # e_1
            while p:
                word.append(-(-q // p))
                q, p = p, word[-1] * p - q
            for a in reversed(word):  # column <- T^a (S column)
                column = [mp.fdot(row, column) for row in rows]
                column = [x * root[a * (b * b - 1) % order] for x, b in zip(column, colours)]
            product, letters = list(map(operator.mul, product, column)), letters + len(word)
        total = mp.fsum(x / sin[2 * b] for x, b in zip(product, colours)) / sin[2]
        scale = (mp.mpf(2) / n_level) ** (mp.mpf(letters - 2) / 2)  # the sqrt(2/N) of S
        phase = mp.expjpi(mp.mpf(3 * (n_level - 2) * (letters - 2)) / (4 * n_level))
        return +(phase * mp.conj(scale * total))


def jeffrey_tau(p: BrieskornTriple, n_level: int, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """tau_N by Jeffrey's SL(2, Z) formula (Comm. Math. Phys. 147, 1992), with q_j = (P/p_j)^-1
    mod p_j and q_1 moved by a multiple of p_1 so that sum_j q_j P/p_j = 1.  A level below 3
    raises ValueError, as in ``tau_n``.
    """
    if n_level < 3:
        raise ValueError("level must be at least 3")
    qs = [pow(c, -1, pk) for pk, c in zip(p.p, p.cofactors)]
    qs[0] -= (sum(map(operator.mul, qs, p.cofactors)) - 1) // p.P * p.p1
    return _seifert_tau(zip(p.p, qs), n_level, ctx)


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
        return AsymptoticApprox(dominant, tail, exact, +abs(exact - dominant - tail))
