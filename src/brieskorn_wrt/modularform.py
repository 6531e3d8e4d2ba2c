"""Weight-3/2 theta series, transformation data and Eichler-integral limits.

The theta series attached to each periodic sign function is modular of
weight 3/2 under an explicit D x D transformation matrix S.  S is kept in
factored form, a scale, per-fibre integer rows of 4p_k-th root sines and the
sign form ``_s_sign``, all shared with the dominant sum, and is read one row
at a time; diagonal T has exponent ``chi.t_numerator`` / 2P.  Its Eichler
integral is only nearly modular: at rationals it has finite limiting values
(computable as finite sums) and a divergent asymptotic tail built from
L-values, both of which are exposed here.  ``eichler_limit`` evaluates a
limit at m/n as four exact integer weight vectors over the n-th roots of
unity, read against one fixed-point table of those roots, so its rounding is
bounded by the weights it sums.  ``nearly_modular_expansion`` is the one
implementation of the dominant/tail split; ``wrt.asymptotic_approx``
normalizes its (1, 1, 1) row.  Its dominant part reads only the gamma
admissible columns, run by run of ``chi._admissible_runs``, through sines
and phases off those same rows, so a warm call builds no table but the limit's.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp

from .chi import (
    BrieskornTriple,
    EllTriple,
    _admissible_runs,
    build_chi,
    canonicalize,
    enumerate_triples,
    l_function_value,
    t_numerator,
)
from .exactmath import DEFAULT_CONTEXT, PrecisionContext, ensure_finite, root_table, to_mpf


def t_exponent(p: BrieskornTriple, ell: EllTriple) -> Fraction:
    """Exponent r with diagonal T-entry exp(pi i r): (P/2)(1 + sum l/p)^2 mod 2 = A^2/2P mod 2."""
    return Fraction(t_numerator(p, ell), 2 * p.P)


def _s_sign(p: BrieskornTriple, l: tuple) -> tuple:
    """Bits (constant, weights): S[l][l'] is its sines times (-1)^(constant + w.l'),
    w.l' = sum_k weights_k l'_k, from the exponent 1 + P + sum_k (l_k + l'_k) c_k
    plus the sum over cyclic (i, j, k) of (l_i l'_j - l_j l'_i) p_k, linear mod 2."""
    p1, p2, p3 = p.p
    cross = (l[2] * p2 + l[1] * p3, l[2] * p1 + l[0] * p3, l[1] * p1 + l[0] * p2)
    constant = 1 + p.P + sum(a * c for a, c in zip(l, p.cofactors))
    return constant & 1, tuple((w + c) & 1 for w, c in zip(cross, p.cofactors))


@dataclass(frozen=True)
class ModularData:
    """Factored S-matrix over the canonical triples of one manifold.

    S[l][l'] = sign * sqrt(32/P) * prod_j sin(pi P l_j l'_j / p_j^2), and with
    c_j = P/p_j the j-th sine is entry 2 c_j l_j l'_j mod 4p_j of ``rows[j]``,
    the integers round(2^bits sin(2 pi e / 4p_j)), 0 <= e < 4p_j: one
    ``exactmath.root_table`` with its second half negated, which the dominant
    sum reads too.  ``_s_sign`` gives the rest of the sign.  ``scale`` =
    sqrt(32/P) and bits = prec + (4 p_3).bit_length() are set at the ``ctx``
    working precision of prec bits, where entries are multiplied out: the
    exact product of three row entries, each within 2 units of 2^-bits, is
    within 0.2 units of 2^-prec, rounded once and multiplied by ``scale``, so
    an entry is within 4 scale 2^-prec of S.  T is not stored (``t_exponent``).
    """

    triple: BrieskornTriple
    ctx: PrecisionContext
    scale: object
    bits: int
    rows: tuple

    @property
    def triples(self) -> tuple:
        """The D canonical triples, enumerated (and cached) only when read."""
        return enumerate_triples(self.triple)

    def s_row(self, ell: EllTriple) -> tuple:
        """The D entries S[ell][l'] over the canonical triples l', in O(D)."""
        l = canonicalize(self.triple, ell)
        with self.ctx.workdps():
            return tuple(self._entry(l, ellp) for ellp in self.triples)

    def s_value(self, ell: EllTriple, ellp: EllTriple):
        """One entry S[ell][ellp]; each argument stands for its orbit."""
        with self.ctx.workdps():
            return self._entry(canonicalize(self.triple, ell), canonicalize(self.triple, ellp))

    def _entry(self, l: tuple, lp: tuple):
        constant, weights = _s_sign(self.triple, l)
        sign = -1 if (constant + sum(map(operator.mul, weights, lp))) & 1 else 1
        factors = zip(self.rows, self.triple.cofactors, l, lp)
        product = math.prod((row[2 * c * a * b % len(row)] for row, c, a, b in factors), start=sign)
        return self.scale * mp.mpf((product, -3 * self.bits))


@lru_cache(maxsize=64)
def _modular_data_cached(p: BrieskornTriple, digits: int) -> ModularData:
    ctx = PrecisionContext(digits)
    with ctx.workdps():
        scale = ensure_finite(mp.sqrt(mp.mpf(32) / p.P))
        bits = mp.prec + (4 * p.p3).bit_length()
    halves = (root_table(4 * pk, bits)[1][: 2 * pk] for pk in p.p)
    rows = tuple(tuple(half + [-s for s in half]) for half in halves)
    return ModularData(triple=p, ctx=ctx, scale=scale, bits=bits, rows=rows)


def modular_data(p: BrieskornTriple, ctx: PrecisionContext = DEFAULT_CONTEXT) -> ModularData:
    """Factored S-matrix, read by ``s_row``/``s_value``, cached per precision."""
    return _modular_data_cached(p, ctx.decimal_digits)


# theta_eval sums about 4 n_max / P terms.  A tau whose cutoff n_max lies
# beyond this many terms (Im tau below about 3e-11 for Sigma(2,3,7) at 50
# digits) is rejected with ValueError before any summing.
THETA_MAX_TERMS = 10**6


def _theta_cutoff(p: BrieskornTriple, im_tau: float, tol_log10: float) -> int:
    # least n with exp(-pi*im_tau*n^2/(2P)) * n < tol / (4P), in the monotone range
    target = tol_log10 - math.log10(4 * p.P)
    decay = math.pi * im_tau / (2 * p.P) * math.log10(math.e)

    def small_enough(n: int) -> bool:
        return -decay * n * n + math.log10(n) < target

    # small_enough fails up to the peak sqrt(P / (pi im_tau)) of n exp(...),
    # so a failure at the cap puts the cutoff beyond it
    cap = THETA_MAX_TERMS * p.P // 4
    if not small_enough(cap):
        raise ValueError(
            f"Im(tau) = {im_tau:.3g} needs more than {THETA_MAX_TERMS} theta terms"
        )
    n = max(2, math.isqrt(int(p.P / (math.pi * im_tau))) + 2)
    while not small_enough(n):
        n *= 2
    return n


def theta_eval(
    p: BrieskornTriple,
    ell: EllTriple,
    tau,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
):
    """Theta series (1/2) sum_n n chi(n) q^{n^2/4P} at tau in the upper half plane.

    Truncated where the geometric majorant exp(-pi Im(tau) n^2 / 2P) * n
    drops below tolerance / 4P.
    """
    chi = build_chi(p, ell)
    with ctx.workdps():
        tau = mp.mpc(tau)
        if not mp.im(tau) > 0:
            raise ValueError("tau must lie in the upper half plane")
        n_max = _theta_cutoff(
            p, float(mp.im(tau)), -(ctx.decimal_digits - 10)
        )
        total = mp.mpc(0)
        two_p = chi.modulus
        for r, sign in chi.signed_support:
            n = r
            while n <= n_max:
                total += sign * n * mp.expjpi(tau * n * n / (2 * p.P))
                n += two_p
        return ensure_finite(+total)


# The root table of eichler_limit carries this many bits beyond the working
# precision, and its four class phases are taken at this many more.
_TABLE_EXTRA_BITS = 10
_PHASE_GUARD_BITS = 18


def _class_weights(p: BrieskornTriple, r: int, sign: int, m: int, n: int) -> list:
    # W[e] = sum of chi(j) (P n - j) over the j = r and j = 2P - r (mod 2P)
    # in [0, P n) whose phase is exp(pi i m r^2 / 2Pn) exp(2 pi i e / n)
    big_p, pn = p.P, p.P * n
    weights = [0] * n
    for start, offset, weight in ((r, 0, sign), (2 * big_p - r, big_p - r, -sign)):
        # e_k = m (offset + start k + P k^2) mod n, stepped by its differences
        e = m * offset % n
        de = m * (start + big_p) % n
        dde = 2 * m * big_p % n
        w = weight * (pn - start)
        dw = -2 * big_p * weight
        for _ in range(len(range(start, pn, 2 * big_p))):
            weights[e] += w
            e = (e + de) % n
            de = (de + dde) % n
            w += dw
    return weights


def eichler_limit(
    p: BrieskornTriple,
    ell: EllTriple,
    m: int,
    n: int,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
):
    """Limiting value of the Eichler integral at tau -> m/n, gcd(m, n) = 1.

    The limit is the finite sum over 0 <= j < P n of
    chi(j) (1 - j/(P n)) exp(pi i m j^2 / (2 P n)).  It has 4n non-zero
    terms: chi has eight support residues mod 2P, four of them r < P, and
    chi(2P - r) = -chi(r).

    Identity.  For j = r + 2Pk, m j^2 = m r^2 + 4P m (r k + P k^2), and for
    j = 2P - r + 2Pk, m j^2 = m r^2 + 4P m ((P - r) + (2P - r) k + P k^2).
    So, with zeta = exp(2 pi i / n), the limit is exactly

        (1 / P n) sum_{r < P} exp(pi i (m r^2 mod 4Pn) / 2Pn) sum_e W_r[e] zeta^e

    over four integer vectors W_r[e] = sum chi(j) (P n - j), taken over the
    j of both progressions whose bracket above, times m, is e mod n.  They
    are built and consumed one at a time.

    Table.  W[e] + W[n - e] meets the even cosines and W[e] - W[n - e] the
    odd sines, so the n/2 + 1 entries of ``exactmath.root_table(n, F)``,
    F = mp.prec + 10, suffice: one ``expjpi`` builds them, each within
    2 units of 2^-F.  The dot products are exact integers.

    Bound.  With u = 2^-mp.prec and |W| = sum_r sum_e |W_r[e]|, which is at
    most sum_j (P n - j), the result is within
    (4 |W| 2^-F + 8 |W| u) / (P n) of the exact limit: the table entries,
    then a few roundings in the four complex products (phases taken at
    F + 18 bits, one ``expjpi`` each), their sum and the one division by P n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if math.gcd(m, n) != 1:
        raise ValueError("m and n must be coprime")
    chi = build_chi(p, ell)
    pn = p.P * n
    four_pn = 4 * pn
    half = n // 2
    with ctx.workdps():
        bits = mp.prec + _TABLE_EXTRA_BITS
        cos, sin = root_table(n, bits)
        total = mp.mpc(0)
        for r, sign in chi.signed_support:
            if r > p.P:
                continue  # 2P - r joins the class of r
            weights = _class_weights(p, r, sign, m, n)
            low = weights[1 : half + 1]
            even = [weights[0], *map(operator.add, low, reversed(weights))]
            odd = [0, *map(operator.sub, low, reversed(weights))]
            if n % 2 == 0:
                even[half] = weights[half]  # e = n - e = n/2 counts once
            inner = mp.mpc(
                mp.ldexp(sum(map(operator.mul, even, cos)), -bits),
                mp.ldexp(sum(map(operator.mul, odd, sin)), -bits),
            )
            with mp.workprec(bits + _PHASE_GUARD_BITS):
                phase = mp.expjpi(mp.mpf(m * r * r % four_pn) / (2 * pn))
            total += phase * inner
        return ensure_finite(total / pn)


@dataclass(frozen=True)
class EichlerTail:
    """Asymptotic tail of the nearly modular expansion.

    ``coefficients[k]`` is L(-2k, chi)/k!; evaluation multiplies term k by
    (pi i / (2 P N))^k.  The series is asymptotic, not convergent: K is the
    caller's truncation choice.  An order outside the stored coefficients
    raises ValueError.
    """

    two_p: int
    coefficients: tuple

    def _check_order(self, k: int) -> None:
        if not 0 <= k < len(self.coefficients):
            raise ValueError(f"tail order {k} outside [0, {len(self.coefficients)})")

    def evaluate(self, n: int, k_max: int, ctx: PrecisionContext = DEFAULT_CONTEXT):
        self._check_order(k_max)
        with ctx.workdps():
            scale = mp.mpc(0, 1) * mp.pi / (self.two_p * n)
            total = mp.mpc(0)
            power = mp.mpc(1)
            for k in range(k_max + 1):
                total += to_mpf(self.coefficients[k]) * power
                power *= scale
            return ensure_finite(+total)


def eichler_tail(p: BrieskornTriple, ell: EllTriple, order: int) -> EichlerTail:
    """Tail coefficients L(-2k, chi)/k! for k = 0..order, exact."""
    if order < 0:
        raise ValueError("tail order must be non-negative")
    chi = build_chi(p, ell)
    coeffs = tuple(
        l_function_value(chi, k) / math.factorial(k) for k in range(order + 1)
    )
    return EichlerTail(two_p=2 * p.P, coefficients=coeffs)


@dataclass(frozen=True)
class AsymptoticApprox:
    """dominant + tail of a limit at 1/N; abs_error = |exact - dominant - tail|."""

    dominant: object
    tail: object
    exact: object
    abs_error: object


def _fibre_row(md: ModularData, k: int, lk: int, n: int, flip: int, lo: int, hi: int) -> list:
    # entry b, lo <= b <= hi: (-1)^(flip b) sin(pi c l_k b / p_k) e^{-pi i n c b^2 / 2p_k},
    # read off the fibre's row of sin(2 pi e / 4p_k), cos(t) = sin(t + pi/2), in integers
    c, pk, sin, row = md.triple.cofactors[k], md.triple.p[k], md.rows[k], [None] * lo
    scale = -2 * md.bits
    for b in range(lo, hi + 1):
        sine = -sin[2 * c * lk * b % (4 * pk)] if flip & b else sin[2 * c * lk * b % (4 * pk)]
        e = -n * c * b * b % (4 * pk)
        cos = sin[(e + pk) % (4 * pk)]
        row.append(mp.mpc((sine * cos, scale), (sine * sin[e], scale)))  # (man, exp) pairs
    return row


def _dominant_sum(md: ModularData, ell: EllTriple, n: int) -> tuple:
    """(sum, q): sum_l' S[ell][l'] e^{-pi i r(l') n} = i^-q sqrt(32/P) sum.

    The sum runs over the admissible columns l' only.  With A = P + sum l'_k c_k,

        A^2 / 2P = P/2 + J + sum_k c_k l'_k^2 / 2p_k,
        J = sum_k l'_k c_k + l'_1 l'_2 p_3 + l'_1 l'_3 p_2 + l'_2 l'_3 p_1,

    an integer J, so e^{-pi i r n} = i^{-nP} (-1)^{nJ} prod_k e^{-pi i n c_k l'_k^2 / 2p_k}.
    ``_s_sign`` gives the sign of S[ell][l'] as a constant and a part linear
    in l'.  So each fibre k gets a table of its sine of S times its phase, signed
    by the parts of both parities that are linear in l'_k, over the l'_k
    the admissible runs reach.  A column is three table entries, signed by
    the parity of n times the cross terms of J; the constant signs and
    i^{-nP} make up i^-q.  In one run of ``_admissible_runs`` l'_1 and l'_2
    are fixed and the sign changes with l'_3 at most as (-1)^l'_3, so the
    run costs one difference of prefix sums of the third table, plain or
    alternating, and two products.  The third table spans the least first
    to the greatest last l'_3 of the runs.  Sines and phases are entries of
    the S entries' own rows ``md.rows``, so a call builds no root table.
    """
    p = md.triple
    l = canonicalize(p, ell)
    p1, p2, p3 = p.p
    runs = tuple(_admissible_runs(p))
    constant, weights = _s_sign(p, l)
    flips = [(w + n * c) & 1 for w, c in zip(weights, p.cofactors)]
    f1 = _fibre_row(md, 0, l[0], n, flips[0], runs[0][0], runs[-1][0])
    f2 = _fibre_row(md, 1, l[1], n, flips[1], min(r[1] for r in runs), max(r[1] for r in runs))
    lo = min(r[2] for r in runs)
    f3 = _fibre_row(md, 2, l[2], n, 0, lo, max(r[3] for r in runs))
    # prefix sums of the third table, plain and times (-1)^l'_3
    plain = [None] * lo + [mp.mpc(0)]
    alternating = list(plain)
    for b in range(lo, len(f3)):
        plain.append(plain[-1] + f3[b])
        alternating.append(alternating[-1] - f3[b] if b & 1 else alternating[-1] + f3[b])
    odd = n & 1
    total = mp.mpc(0)
    for a, b, first, last in runs:
        sums = alternating if (flips[2] + odd * (a * p2 + b * p1)) & 1 else plain
        term = f1[a] * f2[b] * (sums[last + 1] - sums[first])
        total += -term if odd & a * b * p3 else term
    return total * md.scale, (n * p.P + 2 * constant) % 4


def nearly_modular_expansion(
    p: BrieskornTriple,
    ell: EllTriple,
    n: int,
    k_max: int,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
) -> AsymptoticApprox:
    """Dominant S-transformed part plus order-k_max tail of the limit at 1/n.

    dominant = -sqrt(n/i) sum_l' S[ell][l'] (integer-point limit of l' at -n),
    that limit being -2 e^{-pi i r(l') n} on the admissible columns and 0
    elsewhere; exact is ``eichler_limit`` at 1/n.  The sum reads only those
    gamma columns, one admissible run at a time, through per-fibre tables of
    sines times phases off the rows of ``modular_data`` (see ``_dominant_sum``).
    """
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    if n < 1:
        raise ValueError("n must be positive")
    md = modular_data(p, ctx)
    with ctx.workdps():
        total, quarter = _dominant_sum(md, ell, n)
        # -sqrt(n/i) i^-q times the amplitude -2
        dominant = 2 * mp.sqrt(mp.mpf(n)) * mp.expjpi(mp.mpf(-1 - 2 * quarter) / 4) * total
        tail = eichler_tail(p, ell, k_max).evaluate(n, k_max, ctx)
        exact = eichler_limit(p, ell, 1, n, ctx)
        abs_error = ensure_finite(abs(exact - dominant - tail))
        return AsymptoticApprox(ensure_finite(+dominant), tail, exact, abs_error)
