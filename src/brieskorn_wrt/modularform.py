"""Weight-3/2 theta series, transformation data and Eichler-integral limits.

The theta series attached to each periodic sign function is modular of
weight 3/2 under an explicit D x D transformation matrix S.  S is kept in
factored form, a scale, per-fibre integer rows of 4p_k-th root sines and the
sign form ``_s_sign``, all shared with the dominant sum, and is read one row
at a time; diagonal T has exponent ``chi.t_numerator`` / 2P.  Its Eichler
integral is only nearly modular: at rationals it has finite limiting values
(computable as finite sums) and a divergent asymptotic tail built from
L-values.  ``eichler_tail`` is that tail as its tuple of exact coefficients
L(-2k, chi)/k!, which ``ohtsuki`` sums into lambda_n and ``nearly_modular_expansion``
sums in powers of pi i / 2Pn.  ``eichler_limit`` evaluates a limit at m/n
as one T-phase times one exact integer weight vector over the n-th roots of
unity, both summed in fixed point as powers of one root of unity
(``exactmath.root_power_sum``), so it takes one exponential, builds no table,
and its rounding is bounded by the weights it sums.
``nearly_modular_expansion`` is the one implementation of the dominant/tail
split, without the O(n) limit; ``wrt.asymptotic_approx`` normalizes its
(1, 1, 1) row beside ``eichler_limit``.  Its dominant part reads only the
gamma admissible columns, run by run of ``chi.admissible_triples``, through
sines and phases off those same rows, summed as Gaussian integers and scaled
by the exact 8 sqrt(n/P)(1 - i)(-i)^q with one integer square root.  Its
tail is summed exactly by Horner's rule from the exact coefficients in the
integer int(pi 2^w).  Each is rounded once (``exactmath.rounded_ratio``)
within a bound derived from what it sums, so a warm call takes no
exponential and builds no table.
``eichler_tail`` takes every L-value from one pass of ``chi.l_value_ratios``
and builds one ``Fraction`` per coefficient.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, cycle
from typing import NamedTuple

from mpmath import mp

from .chi import (
    BrieskornTriple,
    EllRuns,
    EllTriple,
    admissible_triples,
    build_chi,
    canonicalize,
    enumerate_triples,
    l_value_ratios,
    t_numerator,
)
from .exactmath import (
    DEFAULT_CONTEXT,
    PrecisionContext,
    ensure_finite,
    root_power_sum,
    root_table,
    rounded_ratio,
)


def _s_sign(p: BrieskornTriple, l: tuple) -> tuple:
    """Bits (constant, weights): S[l][l'] is its sines times (-1)^(constant + w.l'),
    w.l' = sum_k weights_k l'_k, from the exponent 1 + P + sum_k (l_k + l'_k) c_k
    plus the sum over cyclic (i, j, k) of (l_i l'_j - l_j l'_i) p_k, linear mod 2."""
    p1, p2, p3 = p.p
    cross = (l[2] * p2 + l[1] * p3, l[2] * p1 + l[0] * p3, l[1] * p1 + l[0] * p2)
    constant = 1 + p.P + sum(a * c for a, c in zip(l, p.cofactors))
    return constant & 1, tuple((w + c) & 1 for w, c in zip(cross, p.cofactors))


class ModularData(NamedTuple):
    """Factored S-matrix over the canonical triples of one manifold.

    S[l][l'] = sign * sqrt(32/P) * prod_j sin(pi P l_j l'_j / p_j^2), and with
    c_j = P/p_j the j-th sine is entry 2 c_j l_j l'_j mod 4p_j of ``rows[j]``,
    the integers round(2^bits sin(2 pi e / 4p_j)), 0 <= e < 4p_j: the half row
    of one ``exactmath.root_table`` followed by its negation, which the
    dominant sum reads too.  ``_s_sign`` gives the rest of the sign.  ``scale`` =
    sqrt(32/P) and bits = prec + (4 p_3).bit_length() are set at the ``ctx``
    working precision of prec bits, where entries are multiplied out: the
    exact product of three row entries, each within 2 units of 2^-bits, is
    within 0.2 units of 2^-prec, rounded once and multiplied by ``scale``, so
    an entry is within 4 scale 2^-prec of S.  T is not stored (``chi.t_numerator``).
    ``runs`` are the admissible runs (l1, l2, first, last) of
    ``chi.admissible_triples`` and ``spans`` the least and greatest l'_k they
    reach, (lo, hi) per fibre, which the dominant sum reads.  ``triples`` are
    the D canonical columns of ``s_row``, from ``chi.enumerate_triples``.
    """

    triple: BrieskornTriple
    ctx: PrecisionContext
    scale: object
    bits: int
    rows: tuple
    runs: tuple
    spans: tuple

    @property
    def triples(self) -> EllRuns:
        """The D canonical triples, an ``EllRuns`` built on each read."""
        return enumerate_triples(self.triple)

    def s_row(self, ell: EllTriple) -> tuple:
        """The D entries S[ell][l'] over the canonical triples l', in O(D)."""
        l = canonicalize(self.triple, ell)
        form = _s_sign(self.triple, l)
        with self.ctx.workdps():
            return tuple(self._entry(form, l, ellp) for ellp in self.triples)

    def s_value(self, ell: EllTriple, ellp: EllTriple):
        """One entry S[ell][ellp]; each argument stands for its orbit."""
        l = canonicalize(self.triple, ell)
        with self.ctx.workdps():
            return self._entry(_s_sign(self.triple, l), l, canonicalize(self.triple, ellp))

    def _entry(self, form: tuple, l: tuple, lp: tuple):
        # form = _s_sign(triple, l), computed once per row
        constant, weights = form
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
    halves = (root_table(4 * pk, bits) for pk in p.p)
    rows = tuple(tuple(half + [-s for s in half]) for half in halves)
    runs = admissible_triples(p)[0].runs
    l1s, l2s, firsts, lasts = zip(*runs)
    spans = ((l1s[0], l1s[-1]), (min(l2s), max(l2s)), (min(firsts), max(lasts)))
    return ModularData(
        triple=p, ctx=ctx, scale=scale, bits=bits, rows=rows, runs=runs, spans=spans
    )


def modular_data(p: BrieskornTriple, ctx: PrecisionContext = DEFAULT_CONTEXT) -> ModularData:
    """Factored S-matrix, read by ``s_row``/``s_value``, cached per precision."""
    return _modular_data_cached(p, ctx.decimal_digits)


# theta_eval sums about 4 n_max / P terms.  A tau whose cutoff n_max lies
# beyond this many terms (Im tau below about 3e-11 for Sigma(2,3,7) at 50
# digits) is rejected with ValueError before any summing.
THETA_MAX_TERMS = 10**6


def _theta_cutoff(p: BrieskornTriple, im_tau: float, tol_log10: float) -> int:
    # the first n = n0 2^j (j >= 0) with exp(-pi*im_tau*n^2/(2P)) * n < tol / (4P),
    # n0 just past the peak of n exp(...): below twice the least such n, not that n
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

    The sum runs over all integers n; chi is odd, so n chi(n) is even and it
    is summed here over n > 0 only, without the 1/2.  Truncated where the
    geometric majorant exp(-pi Im(tau) n^2 / 2P) * n drops below tolerance / 4P.
    """
    chi = build_chi(p, ell)
    with ctx.workdps():
        tau = mp.mpc(tau)
        if not mp.im(tau) > 0:
            raise ValueError("tau must lie in the upper half plane")
        n_max = _theta_cutoff(p, float(mp.im(tau)), -ctx.tolerance_digits)
        total = mp.mpc(0)
        two_p = chi.modulus
        for r, sign in chi.signed_support:
            n = r
            while n <= n_max:
                total += sign * n * mp.expjpi(tau * n * n / (2 * p.P))
                n += two_p
        return ensure_finite(+total)


def _limit_weights(p: BrieskornTriple, ell: EllTriple, t: int, m: int, n: int, shift: int) -> list:
    # V[e] sums chi(j) (P n - j) over the support j in [0, P n) whose phase is
    # exp(pi i m t / 2Pn) exp(2 pi i e / n), t = j^2 mod 4P, and lands at index e + shift mod n
    big_p, pn = p.P, p.P * n
    weights = [0] * n
    for r, sign in build_chi(p, ell).signed_support:
        offset, rest = divmod(r * r - t, 4 * big_p)
        if rest:
            raise ArithmeticError(
                f"support residue {r} of p={p.p}, ell={tuple(ell)} has square {r * r % (4 * big_p)}"
                f" mod 4P, not the T numerator {t}"
            )
        # e_k = m (offset + r k + P k^2) mod n for j = r + 2Pk, stepped by its differences
        e = (m * offset + shift) % n
        de = m * (r + big_p) % n
        dde = 2 * m * big_p % n
        for w in range(sign * (pn - r), 0, -2 * big_p * sign):  # w = chi(j) (P n - j)
            weights[e] += w
            e = (e + de) % n
            de = (de + dde) % n
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
    terms: chi has eight support residues r mod 2P.

    Identity.  T is diagonal: every support j has j^2 = t mod 4P, with
    t = ``chi.t_numerator(p, ell)`` (ArithmeticError otherwise), and for
    j = r + 2Pk, (j^2 - t) / 4P = (r^2 - t) / 4P + r k + P k^2.  So, with
    zeta = exp(2 pi i / n), the limit is exactly

        (1 / P n) exp(pi i (m t mod 4Pn) / 2Pn) sum_e V[e] zeta^e

    over one integer vector V[e] = sum chi(j) (P n - j), taken over the
    support j whose m (j^2 - t) / 4P is e mod n.

    Sum.  With z = exp(2 pi i / 4Pn), zeta = z^4P and the T-phase is
    z^(m t mod 4Pn), so one ``exactmath.root_power_sum`` of order 4Pn and
    step 4P returns sum_e V[e] zeta^e and the phase as Gaussian integers over
    2^b: one exponential whatever n, and no table.  Their product is exact, and
    each component of it over P n 2^2b is rounded once (``rounded_ratio``).

    Bound.  With u = 2^-mp.prec and |V| = sum_e |V[e]|, b = mp.prec +
    (|V| + 1).bit_length() + 3, so 2^-b < u / 8(|V| + 1).  Each component of
    the sum, of modulus at most |V|, and of the phase is within one unit of
    2^-b, so the exact product is within sqrt(2) (|V| + 2) 2^-b < 0.4 u of
    P n times the limit, and the one rounding of each component adds at most
    u times its size: the result is within (1 + |value|) u of the exact limit.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if math.gcd(m, n) != 1:
        raise ValueError("m and n must be coprime")
    t = t_numerator(p, ell)
    weights = _limit_weights(p, ell, t, m, n, 0)
    pn = p.P * n
    with ctx.workdps():
        bits = mp.prec + (sum(map(abs, weights)) + 1).bit_length() + 3
        (x, y), (wx, wy) = root_power_sum(weights, 4 * pn, 4 * p.P, (m * t,), bits)
        return mp.mpc(
            rounded_ratio(x * wx - y * wy, pn, -2 * bits),
            rounded_ratio(x * wy + y * wx, pn, -2 * bits),
        )


@lru_cache(maxsize=128)
def eichler_tail(p: BrieskornTriple, ell: EllTriple, order: int) -> tuple:
    """The exact tail coefficients c_k = L(-2k, chi)/k!, k = 0..order.

    The tail of the nearly modular expansion at 1/n is sum_k c_k (pi i / 2Pn)^k.
    The series is asymptotic, not convergent: the order is the caller's
    truncation.  Every L-value comes from one pass of ``chi.l_value_ratios``,
    and each c_k is one ``Fraction``.  The tuple depends on (p, ell, order)
    alone and is cached, so each level of an asymptotic ladder reuses it.
    """
    if order < 0:
        raise ValueError("tail order must be non-negative")
    ratios = l_value_ratios(build_chi(p, ell), range(order + 1))
    factorials = accumulate(range(1, order + 1), operator.mul, initial=1)
    return tuple(Fraction(num, den * f) for (num, den), f in zip(ratios, factorials))


class ExpansionParts(NamedTuple):
    """dominant + tail of a limit at 1/N."""

    dominant: object
    tail: object


def _fibre_row(md: ModularData, k: int, lk: int, n: int, flip: int, lo: int, hi: int) -> tuple:
    # Gaussian integers (re, im) over 2^(2 bits), entry b for lo <= b <= hi:
    # (-1)^(flip b) sin(pi c l_k b / p_k) e^{-pi i n c b^2 / 2p_k}, read off the fibre's
    # row of sin(2 pi e / 4p_k), cos(t) = sin(t + pi/2)
    c, pk, sin = md.triple.cofactors[k], md.triple.p[k], md.rows[k]
    re, im = [0] * lo, [0] * lo
    for b in range(lo, hi + 1):
        sine = -sin[2 * c * lk * b % (4 * pk)] if flip & b else sin[2 * c * lk * b % (4 * pk)]
        e = -n * c * b * b % (4 * pk)
        re.append(sine * sin[(e + pk) % (4 * pk)])
        im.append(sine * sin[e])
    return re, im


def _dominant_integers(md: ModularData, ell: EllTriple, n: int) -> tuple:
    """(real, imag, q): the dominant sum as a Gaussian integer G = real + i imag.

    sum_l' S[ell][l'] e^{-pi i r(l') n} = i^-q sqrt(32/P) G / 2^(6 bits), up
    to the bound below.  The sum runs over the admissible columns l' only.
    With A = P + sum l'_k c_k,

        A^2 / 2P = P/2 + J + sum_k c_k l'_k^2 / 2p_k,
        J = sum_k l'_k c_k + l'_1 l'_2 p_3 + l'_1 l'_3 p_2 + l'_2 l'_3 p_1,

    an integer J, so e^{-pi i r n} = i^{-nP} (-1)^{nJ} prod_k e^{-pi i n c_k l'_k^2 / 2p_k}.
    ``_s_sign`` gives the sign of S[ell][l'] as a constant and a part linear
    in l'.  So each fibre k gets a table of its sine of S times its phase, signed
    by the parts of both parities that are linear in l'_k, over the l'_k
    the admissible runs reach.  A column is three table entries, signed by
    the parity of n times the cross terms of J; the constant signs and
    i^{-nP} make up i^-q.  In one run of ``md.runs`` l'_1 and l'_2 are
    fixed and the sign changes with l'_3 at most as (-1)^l'_3, so the run
    costs one difference of prefix sums of the third table, plain or
    alternating, and two products.  Each table spans ``md.spans``: the
    third from the least first to the greatest last l'_3 of the runs.

    A table entry is the Gaussian integer (sine cos, sine sin) of entries of
    the S entries' own rows ``md.rows``, so a call builds no root table.
    Prefix sums and each run's product of three entries are exact.  Each row
    entry is within 2 units of 2^-bits, so a table entry, of modulus at most
    1, is within 5 units and a column within 16 units of 2^-bits: G over
    2^(6 bits) is within 16 gamma 2^-bits of its exact value.
    """
    p = md.triple
    l = canonicalize(p, ell)
    p1, p2, p3 = p.p
    constant, weights = _s_sign(p, l)
    flips = [(w + n * c) & 1 for w, c in zip(weights, p.cofactors)]
    span1, span2, span3 = md.spans
    re1, im1 = _fibre_row(md, 0, l[0], n, flips[0], *span1)
    re2, im2 = _fibre_row(md, 1, l[1], n, flips[1], *span2)
    third = _fibre_row(md, 2, l[2], n, 0, *span3)
    # prefix sums of the third table (zero below its first l'_3), plain and times (-1)^l'_3
    plain = [list(accumulate(part, initial=0)) for part in third]
    alternating = [
        list(accumulate(map(operator.mul, part, cycle((1, -1))), initial=0)) for part in third
    ]
    odd = n & 1
    real = imag = 0
    for a, b, first, last in md.runs:
        re, im = alternating if (flips[2] + odd * (a * p2 + b * p1)) & 1 else plain
        x, y = re[last + 1] - re[first], im[last + 1] - im[first]
        x, y = re1[a] * x - im1[a] * y, re1[a] * y + im1[a] * x
        x, y = re2[b] * x - im2[b] * y, re2[b] * y + im2[b] * x
        if odd & a * b * p3:
            real, imag = real - x, imag - y
        else:
            real, imag = real + x, imag + y
    return real, imag, (n * p.P + 2 * constant) % 4


def _dominant(md: ModularData, ell: EllTriple, n: int):
    """-sqrt(n/i) times -2 times the dominant sum, each component rounded once.

    With sqrt(32/P) = 4 sqrt(2/P), e^{-pi i/4} = (1 - i)/sqrt(2) and
    i^-q = (-i)^q, that is 8 sqrt(nP)/P (1 - i) (-i)^q G / 2^(6 bits) for the
    Gaussian integer G of ``_dominant_integers``.  (1 - i)(-i)^q G is exact,
    sqrt(nP) is R / 2^w, R = isqrt(nP 4^w), w = mp.prec + 4, and each
    component is one ``exactmath.rounded_ratio`` of integers.

    Bound.  G is within 16 gamma 2^-bits of its exact value, |1 - i| = sqrt(2)
    and 2^-bits < u / 4p_3, u = 2^-mp.prec, so G adds 32 sqrt(2) gamma
    sqrt(n/P) u / p_3; R, below sqrt(nP) 2^w by less than one unit, adds
    |dominant| u / 16; the roundings add |dominant| u.  The result is within
    (46 gamma sqrt(n/P) / p_3 + 2 |dominant|) u of the exact dominant part.
    Called inside the caller's workdps().
    """
    real, imag, quarter = _dominant_integers(md, ell, n)
    for _ in range(quarter):  # times -i
        real, imag = imag, -real
    wide, big_p = mp.prec + 4, md.triple.P
    scale = 8 * math.isqrt(n * big_p << 2 * wide)
    shift = -6 * md.bits - wide
    return mp.mpc(
        rounded_ratio(scale * (real + imag), big_p, shift),
        rounded_ratio(scale * (imag - real), big_p, shift),
    )


def _tail(coefficients: tuple, two_pn: int):
    """sum_k c_k (pi i / two_pn)^k over the exact c_k, each component rounded once.

    With the c_k over their common denominator E as integers a_k, Pi =
    int(pi 2^w) and M = two_pn 2^w, the sum is H / (E M^K), K the order, for
    the Gaussian integer H = sum_k a_k (i Pi)^k M^(K-k), which Horner's rule
    forms exactly.  Each component is one ``exactmath.rounded_ratio``.

    Bound.  Pi is within 2 units of pi 2^w, so Pi^k / 2^(wk) is within
    k 2^-w pi^k, and w = mp.prec + K.bit_length() puts every term within
    u = 2^-mp.prec times its magnitude |c_k| (pi / two_pn)^k.  So each component,
    the real one of even k and the imaginary one of odd k, is within 3 u
    times the sum of its terms' magnitudes, however large the c_k.  Called
    inside the caller's workdps().
    """
    order = len(coefficients) - 1
    wide = mp.prec + order.bit_length()
    with mp.workprec(wide + 2):
        pi = int(mp.ldexp(mp.pi, wide))
    common = math.lcm(*(c.denominator for c in coefficients))
    scale = two_pn << wide
    real = imag = 0
    weight = 1  # M^(K-k)
    for c in reversed(coefficients):
        real, imag = c.numerator * (common // c.denominator) * weight - imag * pi, real * pi
        weight *= scale
    # H / (E M^K) = H / (E two_pn^K) 2^(-wK)
    denominator, shift = common * two_pn**order, -wide * order
    return mp.mpc(rounded_ratio(real, denominator, shift), rounded_ratio(imag, denominator, shift))


def nearly_modular_expansion(
    p: BrieskornTriple,
    ell: EllTriple,
    n: int,
    k_max: int,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
) -> ExpansionParts:
    """Dominant S-transformed part plus order-k_max tail of the limit at 1/n.

    dominant = -sqrt(n/i) sum_l' S[ell][l'] (integer-point limit of l' at -n),
    that limit being -2 e^{-pi i r(l') n} on the admissible columns and 0
    elsewhere, approximates ``eichler_limit`` at 1/n.  The sum reads only those
    gamma columns, one admissible run at a time, through per-fibre tables of
    sines times phases off the rows of ``modular_data`` (``_dominant_integers``),
    and its scaling is exact but for one integer square root (``_dominant``).
    tail sums the ``eichler_tail`` coefficients c_k (pi i / 2Pn)^k, k <= k_max,
    exactly in the integer Pi = int(pi 2^w) (``_tail``).  Each is rounded once,
    within its stated bound, so the call takes no exponential and does not
    call the O(n) ``eichler_limit``: the limit and the residual are left to
    the caller.
    """
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    if n < 1:
        raise ValueError("n must be positive")
    md = modular_data(p, ctx)
    coefficients = eichler_tail(p, ell, k_max)
    with ctx.workdps():
        dominant = ensure_finite(_dominant(md, ell, n))
        return ExpansionParts(dominant, ensure_finite(_tail(coefficients, 2 * p.P * n)))
