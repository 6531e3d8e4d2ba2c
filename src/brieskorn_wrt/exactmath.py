"""Exact rational number theory and precision-controlled numeric primitives.

Everything exact (sawtooth, Dedekind sums, Bernoulli polynomials, Stirling
numbers, Seifert surgery coefficients) is computed over arbitrary-precision
integers and ``fractions.Fraction``.  Everything numeric (Gauss sums, erfc)
is computed with mpmath at a precision carried explicitly by a
:class:`PrecisionContext`, so results never depend on ambient mpmath state
beyond the scope of a single call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp

# Exact quantities live in stdlib fractions; the alias documents intent.
Rational = Fraction

# Working precision = requested digits + guard digits.  The guard absorbs
# rounding noise from long summations (~1e4-1e5 terms lose < 6 digits).
GUARD_DIGITS = 15


@dataclass(frozen=True)
class PrecisionContext:
    """Explicit decimal precision threaded through every floating computation.

    ``tolerance`` is the comparison threshold 10**-(decimal_digits - 10);
    the 10-digit margin is ample for the cyclotomic sums in this package.
    """

    decimal_digits: int = 50

    def __post_init__(self) -> None:
        if self.decimal_digits < 15:
            raise ValueError("decimal_digits must be at least 15")

    @property
    def working_digits(self) -> int:
        return self.decimal_digits + GUARD_DIGITS

    @property
    def tolerance(self):
        with self.workdps():
            return mp.mpf(10) ** (-(self.decimal_digits - 10))

    def workdps(self):
        """Context manager setting mpmath working precision for this context."""
        return mp.workdps(self.working_digits)


DEFAULT_CONTEXT = PrecisionContext()


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


def to_mpf(x):
    """Convert int/Fraction/float to mpf at current working precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def ensure_finite(z):
    """Assert a numeric result has finite components and return it."""
    if not mp.isfinite(z):
        raise ArithmeticError(f"non-finite value escaped a computation: {z!r}")
    return z


def sawtooth(x) -> Fraction:
    """Sawtooth ((x)) = x - floor(x) - 1/2 for non-integral x, else 0."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - math.floor(x) - Fraction(1, 2)


def dedekind_sum(b: int, a: int) -> Fraction:
    """Dedekind sum s(b, a) = sign(a) * sum_k ((k/a))((kb/a)), k = 1..|a|-1.

    Evaluated in O(log |a|) steps by the reciprocity law
    s(h, k) + s(k, h) = (h^2 + k^2 + 1)/(12hk) - 1/4 for coprime h, k > 0,
    run along Euclid's algorithm on (b mod |a|, |a|) after dividing out the
    gcd (s(dh, dk) = s(h, k)).
    """
    if a == 0:
        raise ValueError("dedekind_sum requires a != 0")
    k = abs(a)
    h = b % k
    g = math.gcd(h, k)
    h, k = h // g, k // g
    # s(h, k) = (h^2 + k^2 + 1 - 3hk)/(12hk) - s(k mod h, h)
    total, sign = Fraction(0), 1
    while h:
        total += sign * Fraction(h * h + k * k + 1 - 3 * h * k, 12 * h * k)
        h, k = k % h, h
        sign = -sign
    return total if a > 0 else -total


def dedekind_sum_cotangent(b: int, a: int, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Cotangent form (1/4a) * sum_k cot(k pi/a) cot(k b pi/a), gcd(b, a) = 1.

    Numeric cross-check of :func:`dedekind_sum`; requires coprimality so no
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
        return Fraction(u.p + u.s, u.q) - 12 * dedekind_sum(u.p, u.q)
    return Fraction(u.r, u.s)


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """Bernoulli number B_n in the convention B_1 = -1/2."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for k in range(n):
        acc += math.comb(n + 1, k) * bernoulli_number(k)
    return -acc / (n + 1)


def bernoulli_polynomial(n: int, x) -> Fraction:
    """Bernoulli polynomial B_n(x), exact: sum_k C(n,k) B_k x^(n-k)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    x = Fraction(x)
    total = Fraction(0)
    for k in range(n + 1):
        total += math.comb(n, k) * bernoulli_number(k) * x ** (n - k)
    return total


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


def _egcd(a: int, b: int):
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
    g, x, y = _egcd(p2 * p3, p1 * p3)
    if g != p3:
        raise ValueError("p must be pairwise coprime")
    g2, u, v = _egcd(p3, p1 * p2)
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
