"""Perturbative series of the quantum invariant and its exact coefficients.

The trivial-connection series tau_infinity, expanded in powers of (q - 1),
has exact rational coefficients lambda_n: the nearly modular tail of the
(1, 1, 1) Eichler integral, a series in log q / 4P with L-value
coefficients, re-expanded in q - 1.  The re-expansion, the Poincare
sphere's q^(1/120) and the shift q^(1/2 - phi/4) run on integer series over
one common denominator, so the only ``Fraction`` built per lambda_n is the
coefficient itself.  A bundled reference table (26 manifolds, orders 0..8)
provides golden data; BWRT_TABLE1_PATH overrides its location.
"""

from __future__ import annotations

import math
import operator
import os
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .chi import BrieskornTriple, EllTriple
from .modularform import eichler_tail
from .topology import phi_invariant

TABLE_ENV_VAR = "BWRT_TABLE1_PATH"


class OhtsukiSeries(NamedTuple):
    """Exact coefficients lambda_0..lambda_order of tau_infinity in (q-1)."""

    manifold: BrieskornTriple
    order: int
    lambdas: tuple

    @property
    def all_integer(self) -> bool:
        return all(lam.denominator == 1 for lam in self.lambdas)


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


def lambda_coefficients(p: BrieskornTriple, order: int) -> OhtsukiSeries:
    """lambda_n for n = 0..order, exact.

    The nearly modular tail (1/2) sum_k c_k (log q / 4P)^k, with
    c_k = L(-2k, chi)/k! the (1, 1, 1) ``eichler_tail`` coefficients and
    q^(1/120) added for the Poincare sphere, is re-expanded in u = q - 1
    through u^(order+1); then sum_n lambda_n u^n = q^(1/2 - phi/4) times that
    bracket over u.  Every series is kept as integers over one denominator,
    and each lambda_n is one ``Fraction``.  A non-zero constant term of the
    bracket raises ArithmeticError.  Non-integer values are reported on the
    warning channel, never rejected.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
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
        constant = Fraction(bracket[0], common)
        raise ArithmeticError(f"tail of {p} has constant term {constant}, expected 0")
    phi = phi_invariant(p)  # 1/2 - phi/4 = (2 d - n) / 4d
    shift, shift_common = _binomial_series(
        2 * phi.denominator - phi.numerator, 4 * phi.denominator, order
    )
    common *= shift_common
    lambdas = tuple(Fraction(x, common) for x in _series_mul(shift, bracket[1:], order))
    series = OhtsukiSeries(manifold=p, order=order, lambdas=lambdas)
    if not series.all_integer:
        import logging  # imported on this rare path alone: it costs every start-up

        bad = [n for n, lam in enumerate(series.lambdas) if lam.denominator != 1]
        logging.getLogger(__name__).warning("non-integer lambda_n for %s at orders %s", p, bad)
    return series


# ---------------------------------------------------------------------------
# bundled reference table


def table1_path() -> str:
    override = os.environ.get(TABLE_ENV_VAR)
    if override:
        return override
    from importlib import resources  # read only where the bundled table is

    return str(resources.files("brieskorn_wrt").joinpath("data/table1.txt"))


def load_table1() -> list:
    """Parse the reference table: list of ((p1, p2, p3), [lambda_0..lambda_8])."""
    rows = []
    with open(table1_path(), "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            head, _, tail = line.partition(":")
            ps = tuple(int(t) for t in head.split())
            values = [int(t) for t in tail.split()]
            if len(ps) != 3 or len(values) != 9:
                raise ValueError(f"malformed reference table line: {line!r}")
            rows.append((ps, values))
    return rows

