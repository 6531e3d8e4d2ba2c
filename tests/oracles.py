"""Closed forms and slower routes kept only as cross-checks for the tests.

None of these has a caller in ``brieskorn_wrt``: the cotangent, sawtooth
and Rademacher forms check the exact Dedekind sums, the Gauss sums and erfc
check the root-of-unity and error-function arithmetic, ``generating_series``
and ``chi_value`` read chi off independently of its eight-point support,
``phi_hat`` approaches the Eichler limits from the lower half plane,
``eichler_limit_per_term`` sums them one ``expjpi`` per term,
``root_table_per_entry`` gives each entry of ``exactmath.root_table`` from
its own ``sinpi``,
``l_function_value_bernoulli`` evaluates L(-2k, chi) from eight Bernoulli
polynomials instead of the integer power moments,
``eichler_integer_data`` is the closed form behind the admissible columns
of the nearly modular expansion, and ``lambda_stirling`` is the
Stirling-number closed form of the perturbative coefficients lambda_n,
read off those Bernoulli-polynomial L-values.

Former library functions that no verb or suite called: ``dedekind_sum``
reads s(b, a) as one ``Fraction`` off the integer kernel under test,
``ell_condition`` tests the open-tetrahedron inequalities in integers,
``tau_prefactor`` is normalized / tau_N as one sine and one phase,
``conjugacy_angles`` gives one connection's rotation numbers, and
``rozansky_normalized`` is the closed O(PN) cyclotomic surgery sum for the
normalized invariant, read off ``wrt._signed_sines``.

Retired production forms kept to check their replacements:
``dedekind_sum_fraction`` is the reciprocity law summed in ``Fraction``s
along Euclid's algorithm, which ``rademacher_phi`` and the spectral-flow
offset read instead of the integer ``dedekind_sum`` under test;
``t_exponent_fraction`` is the T-exponent summed in ``Fraction``s and
``s_parity_reference`` the sign of an S-entry written out with its cross
terms, both independent of the integer numerator and sign form the library
shares between S, T and Chern-Simons; ``dominant_per_column`` reads the
full S-row with one ``expjpi`` of that ``Fraction`` T-exponent per
``ell_condition`` column, ``spectral_flow_per_record`` runs the O(p_j)
sawtooth loop for each connection with its own Dedekind offset,
``chern_simons_fraction`` halves the ``Fraction`` T-exponent, and
``eichler_tail_term`` evaluates one tail term, and ``bernoulli_recurrence``
is the Fraction recurrence over all earlier B_k that the tangent numbers
replaced; ``bernoulli_polynomial`` reads it.  ``lambda_horner`` re-expands
the nearly modular tail in q - 1 by integer Horner and multiplies in
q^(1/120) and q^(1/2 - phi/4) as binomial series, the O(order^3) route to
lambda_n that the Stirling sum over the tail's L-values replaced.  ``admissible_triples_listed``
is the tuple of every admissible triple that ``chi.admissible_triples``
built before it returned their runs, listed here from the full lattice:
``orbit_minima`` canonicalises every lattice point, and ``ell_condition``
keeps the admissible ones.  ``unit_root_expjpi`` is
the root of unity through ``mp.expjpi`` under ``mp.workprec``, which
``exactmath._unit_root`` replaced by the kernel it ends in.  ``json_terms``
(with ``rational_json``, ``real_json`` and ``complex_json``) is the converter
from library values to JSON terms that ``cli`` ran over every report before
it laid reports out from the values, one ``mp.nstr`` of the working value per
number and no precision context, and ``report_terms`` applies it to a
``cli.Report``; ``execute_json`` runs one argv and parses the JSON report
``cli.render`` lays out, and ``corrupted_table1`` writes the bundled reference
table with one cell altered, for a ``table1`` suite that must fail.
``solve_seifert_q`` finds surgery coefficients, which the library does not use.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product

from mpmath import mp

from brieskorn_wrt import (
    DEFAULT_CONTEXT,
    BrieskornTriple,
    EllTriple,
    ModularData,
    OhtsukiSeries,
    PeriodicChi,
    PrecisionContext,
    build_chi,
    canonicalize,
    eichler_tail,
    modular_data,
    phi_invariant,
)
from brieskorn_wrt import cli
from brieskorn_wrt.chi import dedekind_triple_numerator
from brieskorn_wrt.exactmath import _scaled_dedekind_sum
from brieskorn_wrt.ohtsuki import table1_path
from brieskorn_wrt.wrt import _signed_sines


def ensure_finite(z):
    """Return a numeric result with finite components; raise ArithmeticError otherwise.

    The float oracles (cotangent sums, Gauss sums, erfc, the surgery sum) keep this guard.
    """
    if not mp.isfinite(z):
        raise ArithmeticError(f"non-finite value escaped a computation: {z!r}")
    return z


def to_mpf(x):
    """int, float or Fraction as an mpf at the working precision, rounded once."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


@dataclass(frozen=True)
class UnimodularMatrix:
    """Integer matrix [[p, r], [q, s]] with determinant one."""

    p: int
    r: int
    q: int
    s: int

    def __post_init__(self) -> None:
        if self.p * self.s - self.q * self.r != 1:
            raise ValueError("matrix must have determinant 1")

    def left_multiply_s(self) -> "UnimodularMatrix":
        """Return S*U for S = [[0, -1], [1, 0]]."""
        return UnimodularMatrix(-self.q, -self.s, self.p, self.r)


def sawtooth(x) -> Fraction:
    """Sawtooth ((x)) = x - floor(x) - 1/2 for non-integral x, else 0."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - math.floor(x) - Fraction(1, 2)


def dedekind_sum_fraction(b: int, a: int) -> Fraction:
    """s(b, a) by s(h, k) = (h^2 + k^2 + 1 - 3hk)/(12hk) - s(k mod h, h), one Fraction per step."""
    if a == 0:
        raise ValueError("dedekind_sum requires a != 0")
    k = abs(a)
    h = b % k
    g = math.gcd(h, k)
    h, k = h // g, k // g
    total, sign = Fraction(0), 1
    while h:
        total += sign * Fraction(h * h + k * k + 1 - 3 * h * k, 12 * h * k)
        h, k = k % h, h
        sign = -sign
    return total if a > 0 else -total


def dedekind_sum(b: int, a: int) -> Fraction:
    """Dedekind sum s(b, a) = sign(a) * sum_k ((k/a))((kb/a)), k = 1..|a|-1.

    The integer ``_scaled_dedekind_sum`` of (b mod |a|, |a|) with the gcd
    divided out (s(dh, dk) = s(h, k)), over 12|a|/gcd in one ``Fraction``.
    """
    if a == 0:
        raise ValueError("dedekind_sum requires a != 0")
    g = math.gcd(b, a)
    k = abs(a) // g
    value = Fraction(_scaled_dedekind_sum(b % abs(a) // g, k), 12 * k)
    return value if a > 0 else -value


def dedekind_sum_cotangent(b: int, a: int, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Cotangent form (1/4a) * sum_k cot(k pi/a) cot(k b pi/a), gcd(b, a) = 1.

    Numeric cross-check of ``dedekind_sum``; requires coprimality so no
    cotangent pole is hit.
    """
    if a <= 1:
        raise ValueError("cotangent form needs a > 1")
    if math.gcd(b, a) != 1:
        raise ValueError("cotangent form needs gcd(b, a) = 1")
    with ctx.workdps():
        total = mp.mpf(0)
        for k in range(1, a):
            t1 = Fraction(k, a) % 1
            t2 = Fraction(k * b, a) % 1
            total += (mp.cospi(to_mpf(t1)) / mp.sinpi(to_mpf(t1))) * (
                mp.cospi(to_mpf(t2)) / mp.sinpi(to_mpf(t2))
            )
        return ensure_finite(+(total / (4 * a)))


def rademacher_phi(u: UnimodularMatrix) -> Fraction:
    """Rademacher Phi of [[p, r], [q, s]]: (p+s)/q - 12 s(p, q), or r/s if q = 0."""
    if u.q != 0:
        return Fraction(u.p + u.s, u.q) - 12 * dedekind_sum_fraction(u.p, u.q)
    return Fraction(u.r, u.s)


def gauss_sum(n: int, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Quadratic Gauss sum G(n) = sum_{j=0}^{2n-1} exp(-pi i j^2 / (2n))."""
    if n < 1:
        raise ValueError("n must be positive")
    with ctx.workdps():
        total = mp.mpc(0)
        for j in range(2 * n):
            total += mp.expjpi(to_mpf(Fraction(-(j * j % (4 * n)), 2 * n)))
        return ensure_finite(+total)


def gauss_reciprocity_sides(n: int, m: int, k, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Both sides of the quadratic reciprocity identity for finite Gauss sums.

    Left: sum_{j mod n} exp(pi i m j^2 / n + 2 pi i k j).
    Right: sqrt|n/m| exp(pi i sign(nm)/4) sum_{j mod m} exp(-pi i n (j+k)^2 / m).
    Requires n >= 1, m != 0, n*m even and n*k integral, which make both sums
    well defined.  Returns the pair (left, right).
    """
    k = Fraction(k)
    if n < 1:
        raise ValueError("n must be positive")
    if m == 0:
        raise ValueError("m must be nonzero")
    if (n * m) % 2 != 0:
        raise ValueError("n*m must be even")
    if (k * n).denominator != 1:
        raise ValueError("n*k must be an integer")
    with ctx.workdps():
        left = mp.mpc(0)
        for j in range(n):
            arg = (Fraction(m * j * j, n) + 2 * k * j) % 2
            left += mp.expjpi(to_mpf(arg))
        right = mp.mpc(0)
        for j in range(abs(m)):
            arg = (-Fraction(n) * (j + k) ** 2 / m) % 2
            right += mp.expjpi(to_mpf(arg))
        sign = 1 if m > 0 else -1
        right *= mp.sqrt(mp.mpf(n) / abs(m)) * mp.expjpi(to_mpf(Fraction(sign, 4)))
        return ensure_finite(+left), ensure_finite(+right)


def erfc(x, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Complementary error function at context precision."""
    with ctx.workdps():
        return ensure_finite(+mp.erfc(to_mpf(x)))


def generating_series(p: BrieskornTriple, truncation: int) -> list:
    """Laurent coefficients of the sign-function generating quotient.

    Expands (z^{p1 p2} - z^{-p1 p2})(z^{p2 p3} - z^{-p2 p3})
    (z^{p1 p3} - z^{-p1 p3}) / (z^P - z^{-P}) about z = 0 and returns the
    coefficients of z^0 .. z^truncation.  For triples with reciprocal sum
    below 1 these equal chi(n) for ell = (1,1,1); for (2,3,5) the expansion
    carries an extra 1/z + z, so the returned list is chi(n) plus 1 at n = 1
    (the 1/z coefficient is checked and dropped).
    """
    if truncation < 1:
        raise ValueError("truncation must be positive")
    a, b, c = p.p1 * p.p2, p.p2 * p.p3, p.p1 * p.p3
    numerator = {0: 1}
    for e in (a, b, c):
        nxt = {}
        for exp, coeff in numerator.items():
            nxt[exp + e] = nxt.get(exp + e, 0) + coeff
            nxt[exp - e] = nxt.get(exp - e, 0) - coeff
        numerator = nxt
    # multiply both parts of the quotient by z^P: f(z) / (z^{2P} - 1)
    shifted = {exp + p.P: coeff for exp, coeff in numerator.items()}
    min_exp = min(shifted)
    if not (min_exp == -1 if p.is_poincare else min_exp >= 0):
        raise ArithmeticError(f"unexpected lowest exponent {min_exp} for {p}")
    # 1/(z^{2P} - 1) = -(1 + z^{2P} + z^{4P} + ...) as a power series
    def coefficient(t: int) -> int:
        total = 0
        e = t
        while e >= min_exp:
            total -= shifted.get(e, 0)
            e -= 2 * p.P
        return total

    if p.is_poincare and coefficient(-1) != 1:
        raise ArithmeticError("Laurent part must be exactly 1/z")
    return [coefficient(t) for t in range(truncation + 1)]


def chi_value(chi: PeriodicChi, n: int) -> int:
    """chi(n) in {-1, 0, +1}, read from the eight signed residues."""
    return dict(chi.signed_support).get(n % chi.modulus, 0)


def weighted_sum(chi: PeriodicChi) -> int:
    """sum_{n=1}^{2P} n * chi(n); always 0 or 4P."""
    return sum(r * sign for r, sign in chi.signed_support)


def modular_index(md: ModularData, ell: EllTriple) -> int:
    """Position of the orbit of ``ell`` among the canonical triples of ``md``."""
    return tuple(md.triples).index(canonicalize(md.triple, ell))


def eichler_integer_data(p: BrieskornTriple, ell: EllTriple):
    """Exact form of the integer-point limit: (amplitude, phase exponent).

    The limit at integer N equals amplitude * exp(pi i r N) with amplitude
    -(sum n chi(n)) / 2P (hence 0 or -2) and r the T-exponent.
    """
    chi = build_chi(p, ell)
    amplitude = -Fraction(weighted_sum(chi), 2 * p.P)
    return amplitude, t_exponent_fraction(p, ell)


def eichler_limit_per_term(
    p: BrieskornTriple,
    ell: EllTriple,
    m: int,
    n: int,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
):
    """The Eichler limit at m/n as (1/(P n)) sum chi(j) (P n - j) exp(pi i k_j / 2Pn).

    One ``expjpi`` per each of the 4n terms, with the exact phase numerator
    k_j = m j^2 mod 4Pn and the single division by P n last.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if math.gcd(m, n) != 1:
        raise ValueError("m and n must be coprime")
    chi = build_chi(p, ell)
    pn = p.P * n
    four_pn = 4 * pn
    with ctx.workdps():
        total = mp.mpc(0)
        two_pn = mp.mpf(2 * pn)
        for r, sign in chi.signed_support:
            for j in range(r, pn, chi.modulus):
                total += sign * (pn - j) * mp.expjpi(m * j * j % four_pn / two_pn)
        return ensure_finite(total / pn)


def root_table_per_entry(order: int, bits: int, entries) -> list:
    """2^bits sin(2 pi e / order) for each e, one ``mp.sinpi`` per entry at
    bits + 64 bits; compare under that precision."""
    with mp.workprec(bits + 64):
        return [mp.ldexp(mp.sinpi(mp.mpf(2 * e) / order), bits) for e in entries]

_BERNOULLI = [Fraction(1)]  # B_0, B_1, ... as far as any caller has read


def bernoulli_recurrence(n: int) -> Fraction:
    """B_n, B_1 = -1/2, from B_n = -sum_{k<n} C(n+1, k) B_k / (n+1), exact."""
    if n < 0:
        raise ValueError("n must be non-negative")
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        total = sum(math.comb(m + 1, k) * b for k, b in enumerate(_BERNOULLI))
        _BERNOULLI.append(-total / (m + 1))
    return _BERNOULLI[n]


def bernoulli_polynomial(n: int, x) -> Fraction:
    """Bernoulli polynomial B_n(x), exact: sum_k C(n,k) B_k x^(n-k)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    x = Fraction(x)
    total = Fraction(0)
    for k in range(n + 1):
        total += math.comb(n, k) * bernoulli_recurrence(k) * x ** (n - k)
    return total


def l_function_value_bernoulli(chi: PeriodicChi, k: int) -> Fraction:
    """L(-2k, chi) = -(2P)^(2k)/(2k+1) * sum_j chi(j) B_{2k+1}(j / 2P), exact.

    One Bernoulli polynomial per support residue; ``l_function_value``
    reaches the same value through the integer power moments of chi.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    two_p = chi.modulus
    total = Fraction(0)
    for r, sign in chi.signed_support:
        total += sign * bernoulli_polynomial(2 * k + 1, Fraction(r, two_p))
    return -Fraction(two_p ** (2 * k), 2 * k + 1) * total


def phi_hat(
    p: BrieskornTriple,
    ell: EllTriple,
    z,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
):
    """Lower-half-plane companion sum_n chi(n) e^{n^2 pi i z/2P} erfc(n sqrt(-pi y/P)).

    Converges for Im z < 0 and tends to the Eichler limit as z approaches a
    rational from below.  Truncated via the erfc tail bound
    erfc(t) <= exp(-t^2)/(t sqrt(pi)).
    """
    chi = build_chi(p, ell)
    with ctx.workdps():
        z = mp.mpc(z)
        y = mp.im(z)
        if not y < 0:
            raise ValueError("z must lie in the lower half plane")
        c = mp.sqrt(-mp.pi * y / p.P)
        log_tol = float(mp.log(ctx.tolerance))
        # |term(n)| <= exp(-n^2 pi|y|/2P) / (n c sqrt(pi)); stop once the
        # geometric tail starting at n is below tolerance
        decay = float(mp.pi * (-y) / (2 * p.P))
        log_c = float(mp.log(c * mp.sqrt(mp.pi)))

        def tail_small(n: int) -> bool:
            bound = -decay * n * n - math.log(n) - log_c
            gap = decay * (2 * n + 1)
            spread = math.log1p(1 / max(gap, 1e-300)) if gap < 1 else 0.0
            return bound + spread < log_tol

        total = mp.mpc(0)
        two_p = chi.modulus
        supports = list(chi.signed_support)
        block = 0
        while True:
            done = True
            for r, sign in supports:
                n = r + block * two_p
                total += sign * mp.expjpi(z * n * n / (2 * p.P)) * mp.erfc(n * c)
            probe = (block + 1) * two_p + 1
            if not tail_small(probe):
                done = False
            block += 1
            if done:
                break
        return ensure_finite(+total)


@lru_cache(maxsize=None)
def _stirling_row(n: int) -> tuple:
    # ascending coefficients of prod_{j=0}^{n-1} (x - j)
    coeffs = [1]
    for j in range(n):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= j * c
        coeffs = nxt
    return tuple(coeffs)


def stirling_first(n: int, m: int) -> int:
    """Signed Stirling number of the first kind: [x^m] prod_{j=0}^{n-1}(x-j)."""
    if n < 0 or not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    return _stirling_row(n)[m]


def lambda_stirling(p: BrieskornTriple, order: int) -> OhtsukiSeries:
    """lambda_n for n = 0..order from the Stirling-number closed form.

    lambda_n = sum_m S_{n+1}^{(m)} a^m sum_k C(m, k) b^k L(-2k, chi)
    / (2 (n+1)!), with a = (2 - phi)/4, b = 1/(P(2 - phi)) and chi the
    (1, 1, 1) sign function; the Poincare sphere adds (-1)^(n+1).
    """
    phi = phi_invariant(p)
    a = (2 - phi) / 4
    b = Fraction(1, p.P * (2 - phi))
    chi = build_chi(p, EllTriple(1, 1, 1))
    l_values = [l_function_value_bernoulli(chi, k) for k in range(order + 2)]
    lambdas = []
    for n in range(order + 1):
        total = Fraction(0)
        for m in range(1, n + 2):
            inner = Fraction(0)
            for k in range(m + 1):
                inner += math.comb(m, k) * b**k * l_values[k]
            total += stirling_first(n + 1, m) * a**m * inner
        lam = total / (2 * math.factorial(n + 1))
        if p.is_poincare:
            lam += (-1) ** (n + 1)
        lambdas.append(lam)
    return OhtsukiSeries(manifold=p, order=order, lambdas=tuple(lambdas))


def _series_mul(a: list, b: list, order: int) -> list:
    # product of two integer power series in u, truncated after u^order
    return [sum(map(operator.mul, a[: n + 1], reversed(b[: n + 1]))) for n in range(order + 1)]


def _binomial_series(numerator: int, denominator: int, order: int) -> tuple:
    """(coefficients, common) with (1 + u)^(a/b) = sum_j coefficients[j] u^j / common.

    a/b = numerator/denominator.  C(a/b, j) = prod_{i<j} (a - i b) / (b^j j!),
    so over common = b^order order! the j-th coefficient is the integer
    prod_{i<j} (a - i b) b^(order-j) order!/j!.
    """
    steps = (numerator - i * denominator for i in range(order))
    products = accumulate(steps, operator.mul, initial=1)
    rises = (denominator * j for j in range(order, 0, -1))
    factors = list(accumulate(rises, operator.mul, initial=1))[::-1]
    return [a * f for a, f in zip(products, factors)], factors[0]


def lambda_horner(p: BrieskornTriple, order: int) -> OhtsukiSeries:
    """lambda_n for n = 0..order by re-expanding the tail in u = q - 1, O(order^3).

    The nearly modular tail (1/2) sum_k c_k (log q / 4P)^k, with q^(1/120)
    added for the Poincare sphere, is re-expanded by integer Horner through
    u^(order+1); then sum_n lambda_n u^n = q^(1/2 - phi/4) times that bracket
    over u, each factor a binomial series over one common denominator.
    """
    top = order + 1
    c = eichler_tail(p, EllTriple(1, 1, 1), top)
    # log(1 + u) = y(u)/lcm with integer y, so with s = 4P lcm the tail is
    # sum_k c_k (y/s)^k; Horner runs in integers on den c_k s^(top - k)
    lcm = math.lcm(*range(1, top + 1))
    y = [0] + [(-1) ** (j + 1) * (lcm // j) for j in range(1, top + 1)]
    s = 4 * p.P * lcm
    den = math.lcm(*(ck.denominator for ck in c))
    bracket = [0] * (top + 1)
    for k in range(top, -1, -1):
        bracket = _series_mul(bracket, y, top)
        bracket[0] += c[k].numerator * (den // c[k].denominator) * s ** (top - k)
    common = 2 * den * s**top
    if p.is_poincare:
        extra, extra_common = _binomial_series(1, 120, top)
        bracket = [b * extra_common + e * common for b, e in zip(bracket, extra)]
        common *= extra_common
    if bracket[0]:
        raise ArithmeticError(f"tail of {p} has constant term {Fraction(bracket[0], common)}")
    phi = phi_invariant(p)  # 1/2 - phi/4 = (2 d - n) / 4d
    shift, shift_common = _binomial_series(
        2 * phi.denominator - phi.numerator, 4 * phi.denominator, order
    )
    common *= shift_common
    lambdas = tuple(Fraction(x, common) for x in _series_mul(shift, bracket[1:], order))
    return OhtsukiSeries(manifold=p, order=order, lambdas=lambdas)


def egcd(a: int, b: int):
    """Extended Euclid: returns (g, x, y) with a*x + b*y = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def solve_seifert_q(p1: int, p2: int, p3: int) -> tuple:
    """Surgery coefficients (q1, q2, q3) with q1 p2 p3 + q2 p1 p3 + q3 p1 p2 = 1.

    The solution is not unique; this canonical choice runs extended Euclid on
    (p2*p3, p1*p3), lifts through gcd(p3, p1*p2) = 1, then reduces so that
    0 <= q1 < p1 and 0 <= q2 < p2 with q3 absorbing the remainder.
    """
    g, x, y = egcd(p2 * p3, p1 * p3)
    if g != p3:
        raise ValueError("p must be pairwise coprime")
    g2, u, v = egcd(p3, p1 * p2)
    if g2 != 1:
        raise ValueError("p must be pairwise coprime")
    q1, q2, q3 = x * u, y * u, v
    shift = q1 // p1
    q1 -= shift * p1
    q3 += shift * p3
    shift = q2 // p2
    q2 -= shift * p2
    q3 += shift * p3
    if q1 * p2 * p3 + q2 * p1 * p3 + q3 * p1 * p2 != 1:
        raise ArithmeticError(f"surgery coefficients fail to solve for p={(p1, p2, p3)}")
    return q1, q2, q3


def eichler_tail_term(
    p: BrieskornTriple, coefficients: tuple, n: int, k: int, ctx: PrecisionContext = DEFAULT_CONTEXT
):
    """Term k of the tail at 1/n: c_k (pi i / (2 P n))^k, c_k = ``coefficients[k]``."""
    if not 0 <= k < len(coefficients):
        raise ValueError(f"tail order {k} outside [0, {len(coefficients)})")
    with ctx.workdps():
        scale = mp.mpc(0, 1) * mp.pi / (2 * p.P * n)
        return ensure_finite(+(to_mpf(coefficients[k]) * scale**k))


def dominant_per_column(
    p: BrieskornTriple, ell: EllTriple, n: int, ctx: PrecisionContext = DEFAULT_CONTEXT
):
    """The dominant part of the nearly modular expansion, column by column.

    -sqrt(n/i) sum_l' S[ell][l'] (-2 e^{-pi i r(l') n}) over the full S-row,
    kept where ``ell_condition`` holds, one ``expjpi`` of the ``Fraction``
    T-exponent per kept column.
    """
    md = modular_data(p, ctx)
    with ctx.workdps():
        dominant = mp.mpc(0)
        for s, ellp in zip(md.s_row(ell), md.triples):
            if ell_condition(p, ellp):
                dominant += s * mp.expjpi(to_mpf((t_exponent_fraction(p, ellp) * -n) % 2))
        dominant *= 2 * mp.sqrt(mp.mpf(n)) * mp.expjpi(mp.mpf(-0.25))
        return ensure_finite(+dominant)


def euler_number(p: BrieskornTriple, ell: EllTriple) -> int:
    """The integer e = P * sum (p_j - l_j)/p_j entering the spectral flow."""
    return sum((pk - l) * c for l, pk, c in zip(ell, p.p, p.cofactors))


@lru_cache(maxsize=None)
def _spectral_flow_offset(p: BrieskornTriple) -> Fraction:
    # -3 - 4 sum_j s(c_j, p_j), once per manifold
    return -3 - 4 * sum(dedekind_sum_fraction(c, pk) for c, pk in zip(p.cofactors, p.p))


def spectral_flow_per_record(p: BrieskornTriple, ell: EllTriple) -> int:
    """Spectral flow mod 8 with each K_j(e) summed over its p_j - 1 terms."""
    e = euler_number(p, ell)
    total = _spectral_flow_offset(p) - Fraction(2 * e * e, p.P)
    for c, pk in zip(p.cofactors, p.p):
        c_inv = pow(c, -1, pk)
        kernel = 0
        for i in range(1, pk):
            r = c_inv * (e - i) % pk
            if r:
                kernel += (2 * i - pk) * (2 * r - pk)
        total -= Fraction(kernel, pk * pk)
    if total.denominator != 1:
        raise ArithmeticError(f"spectral flow {total} is not an integer")
    return total.numerator % 8


def chern_simons_fraction(p: BrieskornTriple, ell: EllTriple) -> Fraction:
    """-r/2 mod 1 for the ``Fraction`` T-exponent r, reported in (-1/2, 1/2]."""
    cs = (-t_exponent_fraction(p, ell) / 2) % 1
    if cs > Fraction(1, 2):
        cs -= 1
    return cs


def t_exponent_fraction(p: BrieskornTriple, ell: EllTriple) -> Fraction:
    """T-exponent (P/2)(1 + sum l/p)^2 mod 2, summed in ``Fraction``s."""
    s = 1 + sum(Fraction(l, pk) for l, pk in zip(ell, p.p))
    return (Fraction(p.P, 2) * s * s) % 2


def s_parity_reference(p: BrieskornTriple, l: tuple, lp: tuple) -> int:
    """1 when S[l][l'] has the opposite sign to the product of its sines.

    The parity 1 + P + sum_k (l_k + l'_k) c_k plus the cross terms
    (l_2 l'_3 - l_3 l'_2) p_1 + (l_3 l'_1 - l_1 l'_3) p_2 + (l_1 l'_2 - l_2 l'_1) p_3.
    """
    cross = (
        (l[1] * lp[2] - l[2] * lp[1]) * p.p1
        + (l[2] * lp[0] - l[0] * lp[2]) * p.p2
        + (l[0] * lp[1] - l[1] * lp[0]) * p.p3
    )
    return (1 + p.P + sum((a + b) * c for a, b, c in zip(l, lp, p.cofactors)) + cross) % 2


def ell_condition(p: BrieskornTriple, ell: EllTriple) -> bool:
    """Open-tetrahedron inequalities marking non-vanishing integer limits."""
    big = p.P
    a1, a2, a3 = (l * c for l, c in zip(ell, p.cofactors))
    # a_k = l_k * P/p_k is l_k/p_k scaled by big = P, so with S = sum a_k the
    # inequalities 1 < sum l_k/p_k < 3 and |sum l_j/p_j - 2 l_k/p_k| < 1 read:
    s = a1 + a2 + a3
    return big < s < 3 * big and all(abs(s - 2 * a) < big for a in (a1, a2, a3))


def orbit_minima(ps: tuple) -> list:
    """The lexicographically least orbit member of every lattice point, sorted."""
    p1, p2, p3 = ps
    lattice = product(range(1, p1), range(1, p2), range(1, p3))
    return sorted(
        {
            min((a, b, c), (a, p2 - b, p3 - c), (p1 - a, b, p3 - c), (p1 - a, p2 - b, c))
            for a, b, c in lattice
        }
    )


def admissible_triples_listed(p: BrieskornTriple) -> tuple:
    """Every admissible canonical triple, in order, as one tuple of gamma EllTriples."""
    canonical = map(EllTriple._make, orbit_minima(p.p))
    return tuple(ell for ell in canonical if ell_condition(p, ell))


def conjugacy_angles(p: BrieskornTriple, ell: EllTriple) -> tuple:
    """Rotation numbers (p_k - l_k)/p_k of the three generator images."""
    return tuple(Fraction(pk - l, pk) for l, pk in zip(ell, p.p))


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
    value from the exact coordinates of tau_N, and the tests compare the two.
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


def unit_root_expjpi(order: int, wide: int) -> tuple:
    """e^{2 pi i / order} over 2^wide, truncated, from ``mp.expjpi`` under mp.workprec(wide)."""
    with mp.workprec(wide):
        z = mp.expjpi(mp.mpf(2) / order)
    return int(mp.ldexp(z.real, wide)), int(mp.ldexp(z.imag, wide))


def rational_json(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def complex_json(z, digits: int) -> dict:
    """z as {"re", "im"} strings of ``digits`` digits, each component rounded once."""
    return {"re": mp.nstr(mp.re(z), digits), "im": mp.nstr(mp.im(z), digits)}


def real_json(x, digits: int) -> str:
    """x as a string of ``digits`` digits, rounded once from the working value."""
    return mp.nstr(x, digits)


def json_terms(value, digits: int):
    """A library value in JSON terms; mpmath numbers at ``digits`` digits, a
    ``cli._Fixed`` at its own, one mp.nstr per number."""
    kind = type(value)
    if kind is int or kind is str or value is None:
        return value
    if kind is dict:
        return {key: json_terms(item, digits) for key, item in value.items()}
    if kind is list or kind is tuple or kind is EllTriple:
        return [json_terms(item, digits) for item in value]
    if kind is Fraction:
        return rational_json(value)
    if kind is mp.mpf:
        return real_json(value, digits)
    if kind is mp.mpc:
        return complex_json(value, digits)
    if kind is cli._Fixed:
        return json_terms(value.value, value.digits)
    return value  # a bool or a float, already a JSON term


def report_terms(report: cli.Report) -> dict:
    """The report in JSON terms by ``json_terms``, the flat and cs records first
    rebuilt as the dicts their runners made."""
    results = dict(report.values)
    if "flat_connections" in results:
        results["flat_connections"] = [
            {
                "ell": r.triple,
                "cs": r.cs,
                "torsion_sqrt": r.torsion_sqrt,
                "spectral_flow": r.spectral_flow,
                "conjugacy_angles": r.conjugacy_angles,
            }
            for r in results["flat_connections"]
        ]
    if "cs_spectrum" in results:
        results["cs_spectrum"] = [{"ell": ell, "cs": cs} for ell, cs in results["cs_spectrum"]]
    terms = {"command": report.command, "results": results, "metadata": report.metadata}
    terms["status"] = report.status
    if report.failures:
        terms["failure"] = report.failures
    return json_terms(terms, report.digits)


def execute_json(argv: list) -> tuple:
    """(report, exit code, the report as ``cli.render`` lays it out in JSON, parsed) of argv."""
    cmd = cli.parse(argv)
    report, code = cli.execute(cmd)
    return report, code, json.loads(cli.render(cmd._replace(fmt="json"), report))


def corrupted_table1(tmp_path, prefix: str, old: str, new: str):
    """A copy of the bundled reference table under ``tmp_path`` whose row starting
    with ``prefix`` has its first ``old`` replaced by ``new``; returns its path."""
    with open(table1_path(), "r", encoding="utf-8") as handle:
        lines = [line.replace(old, new, 1) if line.startswith(prefix) else line for line in handle]
    corrupted = tmp_path / "table1.txt"
    corrupted.write_text("".join(lines), encoding="utf-8")
    return corrupted
