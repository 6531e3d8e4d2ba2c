"""Exact rational number theory and the precision context for numeric work.

Everything exact is computed over arbitrary-precision integers: a Dedekind
sum as the integer 12k s(h, k) along Euclid's algorithm, returned as one
``fractions.Fraction``, and Bernoulli numbers as Fractions.  Floating
computations elsewhere in the package run with mpmath at a precision
carried explicitly by a :class:`PrecisionContext`, so results never depend
on ambient mpmath state beyond the scope of a single call.
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


def to_mpf(x):
    """Convert int/Fraction/float to mpf at current working precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def ensure_finite(z):
    """Return a numeric result with finite components; raise ArithmeticError otherwise."""
    if not mp.isfinite(z):
        raise ArithmeticError(f"non-finite value escaped a computation: {z!r}")
    return z


def dedekind_sum(b: int, a: int) -> Fraction:
    """Dedekind sum s(b, a) = sign(a) * sum_k ((k/a))((kb/a)), k = 1..|a|-1.

    O(log |a|) integer steps on F(h, k) = 12k s(h, k), an integer for coprime
    h, k, with reciprocity h F(h, k) + k F(k mod h, h) = h^2 + k^2 + 1 - 3hk and
    F(0, 1) = 0: Euclid's algorithm runs down (b mod |a|, |a|) with the gcd
    divided out (s(dh, dk) = s(h, k)), F comes back up by exact division, and
    one ``Fraction`` is built at the end.
    """
    if a == 0:
        raise ValueError("dedekind_sum requires a != 0")
    g = math.gcd(b, a)
    h, k = b % abs(a) // g, abs(a) // g
    steps = []
    while h:
        steps.append((h, k))
        h, k = k % h, h
    scaled = 0  # F(0, 1)
    for h, k in reversed(steps):
        scaled = (h * h + k * k + 1 - 3 * h * k - k * scaled) // h
    value = Fraction(scaled, 12 * abs(a) // g)
    return value if a > 0 else -value


def root_table(order: int, bits: int) -> tuple:
    """Integer lists (cos, sin) over 2^bits, entry e within 2 units of 2^-bits of
    (cos, sin)(2 pi e / order), 0 <= e <= order/2, from one ``mp.expjpi``.

    z = e^{2 pi i / order} is taken at w = bits + g bits.  Entry a + b s is the giant
    step (z^s)^b times the baby step z^a, a < s = isqrt(order/2) + 1, each step a
    product rounded to 2^-w.  In units of 2^-w, z is within 5 and a product adds its
    factors' errors plus 1 (while bits > 2 order.bit_length()), so entry e is within
    6e + b < 4 order before its one rounding to 2^-bits, which adds 1/2;
    g = order.bit_length() + 2 puts 4 order under one unit of 2^-bits.  An order
    below 1, or bits <= 2 order.bit_length(), raises ValueError.
    """
    if order < 1 or bits <= 2 * order.bit_length():
        raise ValueError(f"root table ({order}, {bits}): need order >= 1, bits > 2 bit_length")
    half, step, wide = order // 2, math.isqrt(order // 2) + 1, bits + order.bit_length() + 2
    with mp.workprec(wide):
        z = mp.expjpi(mp.mpf(2) / order)
    baby = [(1 << wide, 0), (int(mp.ldexp(z.real, wide)), int(mp.ldexp(z.imag, wide)))]

    def times(x: tuple, y: tuple, shift: int = wide) -> tuple:
        (a, b), (c, d), unit = x, y, 1 << (shift - 1)
        return (a * c - b * d + unit) >> shift, (a * d + b * c + unit) >> shift

    while len(baby) <= step:
        baby.append(times(baby[-1], baby[1]))
    giant = [baby[0]]
    while len(giant) * step <= half:
        giant.append(times(giant[-1], baby[step]))
    shift, cos, sin = 2 * wide - bits, [], []
    unit = 1 << (shift - 1)
    for gx, gy in giant:
        for bx, by in baby[: min(step, half + 1 - len(cos))]:
            cos.append((gx * bx - gy * by + unit) >> shift)
            sin.append((gx * by + gy * bx + unit) >> shift)
    return cos, sin


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
