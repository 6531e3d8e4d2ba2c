"""Exact rational number theory and the precision context for numeric work.

Everything exact is computed over arbitrary-precision integers: a Dedekind
sum as the integer 12k s(h, k) along Euclid's algorithm, which the Dedekind
datum of ``chi`` sums as an integer, and the even Bernoulli numbers as
Fractions over integer tangent numbers.  Floating computations elsewhere in
the package run with mpmath at a precision carried explicitly by a
:class:`PrecisionContext`, so results never depend on ambient mpmath state
beyond the scope of a single call.  Each table or sum of roots of unity takes
one root, an integer pair that ``_unit_root`` reads off mpmath's cos/sin(pi x)
kernel on raw tuples.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce
from typing import NamedTuple

from mpmath import mp
from mpmath.libmp import from_int, mpf_cos_sin_pi, mpf_div, mpf_shift, round_nearest, to_int

# Working precision = requested digits + guard digits.  The guard absorbs
# rounding noise from long summations (~1e4-1e5 terms lose < 6 digits).
GUARD_DIGITS = 15


class _PrecisionFields(NamedTuple):
    decimal_digits: int = 50


class PrecisionContext(_PrecisionFields):
    """Explicit decimal precision threaded through every floating computation.

    ``tolerance`` is the comparison threshold 10**-tolerance_digits, with
    tolerance_digits = decimal_digits - 10, the one place that margin is
    written; 10 digits are ample for the cyclotomic sums in this package.
    """

    __slots__ = ()

    def __new__(cls, decimal_digits: int = 50):
        if decimal_digits < 15:
            raise ValueError("decimal_digits must be at least 15")
        return super().__new__(cls, decimal_digits)

    @classmethod
    def _make(cls, iterable):  # _replace builds through here: validate it too
        return cls(*iterable)

    @property
    def working_digits(self) -> int:
        return self.decimal_digits + GUARD_DIGITS

    @property
    def tolerance_digits(self) -> int:
        return self.decimal_digits - 10

    @property
    def tolerance(self):
        with self.workdps():
            return mp.mpf(10) ** -self.tolerance_digits

    def workdps(self):
        """Context manager setting mpmath working precision for this context."""
        return mp.workdps(self.working_digits)


DEFAULT_CONTEXT = PrecisionContext()


def rounded_ratio(numerator: int, denominator: int, exponent: int = 0):
    """numerator / denominator * 2^exponent as an mpf, correctly rounded once to mp.prec bits.

    The quotient is carried to at least mp.prec + 2 bits, then one sticky bit,
    set when the division leaves a remainder, stands for the rest: no rounding
    boundary at mp.prec bits falls between the sticky value and the exact
    quotient.  The denominator must be positive.
    """
    sign, magnitude = (-1, -numerator) if numerator < 0 else (1, numerator)
    extra = max(0, mp.prec + 3 - magnitude.bit_length() + denominator.bit_length())
    quotient, remainder = divmod(magnitude << extra, denominator)
    return mp.mpf((sign * (2 * quotient + (remainder > 0)), exponent - extra - 1))


def _scaled_dedekind_sum(h: int, k: int) -> int:
    """F(h, k) = 12k s(h, k), an integer, for coprime 0 <= h < k.

    O(log k) integer steps: with reciprocity h F(h, k) + k F(k mod h, h) =
    h^2 + k^2 + 1 - 3hk and F(0, 1) = 0, Euclid's algorithm runs down (h, k)
    and F comes back up by exact division.
    """
    steps = []
    while h:
        steps.append((h, k))
        h, k = k % h, h
    scaled = 0  # F(0, 1)
    for h, k in reversed(steps):
        scaled = (h * h + k * k + 1 - 3 * h * k - k * scaled) // h
    return scaled


def _fixed_product(x: tuple, y: tuple, shift: int) -> tuple:
    """The Gaussian integer x y over 2^shift, rounded to the nearest unit."""
    (a, b), (c, d), unit = x, y, 1 << (shift - 1)
    return (a * c - b * d + unit) >> shift, (a * d + b * c + unit) >> shift


def _unit_root(order: int, wide: int) -> tuple:
    """e^{2 pi i / order} over 2^wide, truncated, within 5 units of 2^-wide: the integers
    of ``mp.expjpi(mp.mpf(2) / order)`` under mp.workprec(wide), from the kernel that call
    ends in, ``mpf_cos_sin_pi``, on raw tuples rounded to nearest, with no context."""
    x = mpf_div(from_int(2), from_int(order), wide, round_nearest)
    cos, sin = mpf_cos_sin_pi(x, wide, round_nearest)
    return to_int(mpf_shift(cos, wide)), to_int(mpf_shift(sin, wide))


def root_table(order: int, bits: int) -> list:
    """Integers over 2^bits, entry e within 2 units of 2^-bits of sin(2 pi e / order),
    0 <= e < order/2: the (order + 1) // 2 sines of a half period, from one ``_unit_root``.

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
    count, step, wide = (order + 1) // 2, math.isqrt(order // 2) + 1, bits + order.bit_length() + 2
    baby = [(1 << wide, 0), _unit_root(order, wide)]
    while len(baby) <= step:
        baby.append(_fixed_product(baby[-1], baby[1], wide))
    giant = [baby[0]]
    while len(giant) * step < count:
        giant.append(_fixed_product(giant[-1], baby[step], wide))
    shift, sin = 2 * wide - bits, []
    unit = 1 << (shift - 1)
    for gx, gy in giant:
        for bx, by in baby[: min(step, count - len(sin))]:
            sin.append((gx * by + gy * bx + unit) >> shift)
    return sin


def root_power_sum(coefficients: list, order: int, step: int, exponents: tuple, bits: int):
    """Gaussian integers (re, im) over 2^bits for z = e^{2 pi i / order}, from one
    ``_unit_root``: sum_k coefficients[k] z^(step k) first, then z^e for each e in
    ``exponents``.  Each component is within 1 unit of 2^-bits.

    Method.  z is taken at w bits, and every power of z is a chain of products
    rounded to 2^-w (``_fixed_product``).  Binary powering squares z up to the top
    bit of the order, and z^e (e mod order) and r = z^step multiply the squares of
    their bits.  The baby steps r^a, a < m = isqrt(n) + 1 over n coefficients, take
    one product each, and the giant step r^m one more.  Each block of m
    coefficients meets the baby steps in two integer dot products, exact, and
    Horner's rule runs over the blocks, one rounded product by the giant step each.

    Bound.  In units of 2^-w: z is within 5, and a product adds its factors' errors
    plus 2 (its rounding, and the product of the errors while both stay below
    2^(w/2)), so a power z^e formed in at most e products is within 7e.  With
    C = sum_k |coefficients[k]| and K = max(order, step n), the coefficient of
    index k meets a product of powers within 7 step k < 7K in all, and the Horner
    roundings add 2 per block, so the sum is within 7KC + 2n < 8K(C + 1).  The
    guard g = (8K(C + 1)).bit_length() + 1 and w = max(bits, g) + g put every
    value within half a unit of 2^-bits and every error below 2^(w/2); the one
    rounding to 2^-bits adds the other half.  An order, step or bits below 1
    raises ValueError.
    """
    if min(order, step, bits) < 1:
        raise ValueError(f"root power sum ({order}, {step}, {bits}): each must be positive")
    count = len(coefficients)
    reach = max(order, step * count)
    guard = (8 * reach * (sum(map(abs, coefficients)) + 1)).bit_length() + 1
    wide = max(bits, guard) + guard
    squares = [_unit_root(order, wide)]  # z^(2^j), 2^j < order
    while 1 << len(squares) < order:
        squares.append(_fixed_product(squares[-1], squares[-1], wide))

    def power(e: int) -> tuple:  # 0 <= e < order: the squares of e's bits, multiplied
        factors = [square for j, square in enumerate(squares) if e >> j & 1] or [(1 << wide, 0)]
        return reduce(lambda x, y: _fixed_product(x, y, wide), factors)

    ratio = power(step % order)
    size = math.isqrt(count) + 1
    baby = [(1 << wide, 0)]
    while len(baby) < size:
        baby.append(_fixed_product(baby[-1], ratio, wide))
    giant = _fixed_product(baby[-1], ratio, wide)
    cos, sin = [x for x, _ in baby], [y for _, y in baby]
    real = imag = 0
    for start in reversed(range(0, count, size)):
        block = coefficients[start : start + size]
        real, imag = _fixed_product((real, imag), giant, wide)
        real += sum(map(operator.mul, block, cos))
        imag += sum(map(operator.mul, block, sin))
    values = [(real, imag)] + [power(e % order) for e in exponents]
    shift = wide - bits
    unit = 1 << (shift - 1)
    return tuple(((x + unit) >> shift, (y + unit) >> shift) for x, y in values)


def _tangent_numbers(count: int) -> list:
    """T_1..T_count with tan x = sum_k T_k x^(2k-1) / (2k-1)!, in integers.

    Brent and Harvey's in-place recurrence: T_k = (k-1)! to start, then pass
    k = 2..count sets T_j = (j-k) T_(j-1) + (j-k+2) T_j for j >= k.
    """
    t = [0, 1] + [0] * (count - 1)
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1 : count + 1]


def even_bernoulli_numbers(count: int) -> tuple:
    """(B_2, B_4, ..., B_2count), exact, from ``count`` tangent numbers:
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), one Fraction each."""
    return tuple(
        Fraction((-1) ** (k - 1) * 2 * k * t, 4**k * (4**k - 1))
        for k, t in enumerate(_tangent_numbers(count), 1)
    )
