"""Perturbative series of the quantum invariant and its exact coefficients.

The trivial-connection series tau_infinity, expanded in powers of (q - 1),
has exact rational coefficients lambda_n: the nearly modular tail of the
(1, 1, 1) Eichler integral, a series in log q / 4P with L-value
coefficients, re-expanded in q - 1.  A bundled reference table (26
manifolds, orders 0..8) provides golden data; BWRT_TABLE1_PATH overrides
its location.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .chi import BrieskornTriple, EllTriple
from .modularform import eichler_tail
from .topology import phi_invariant

logger = logging.getLogger(__name__)

TABLE_ENV_VAR = "BWRT_TABLE1_PATH"


@dataclass(frozen=True)
class OhtsukiSeries:
    """Exact coefficients lambda_0..lambda_order of tau_infinity in (q-1)."""

    manifold: BrieskornTriple
    order: int
    lambdas: tuple

    @property
    def all_integer(self) -> bool:
        return all(lam.denominator == 1 for lam in self.lambdas)


def _series_mul(a: list, b: list, order: int) -> list:
    # product of two power series in u, truncated after u^order
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(order + 1)]


def _binomial_series(exponent: Fraction, order: int) -> list:
    # (1 + u)^exponent = sum_j C(exponent, j) u^j
    coeffs = [Fraction(1)]
    for j in range(1, order + 1):
        coeffs.append(coeffs[-1] * (exponent - (j - 1)) / j)
    return coeffs


def lambda_coefficients(p: BrieskornTriple, order: int) -> OhtsukiSeries:
    """lambda_n for n = 0..order, exact.

    The nearly modular tail (1/2) sum_k c_k (log q / 4P)^k, with
    c_k = L(-2k, chi)/k! the (1, 1, 1) ``eichler_tail`` coefficients and
    q^(1/120) added for the Poincare sphere, is re-expanded in u = q - 1
    through u^(order+1); then sum_n lambda_n u^n = q^(1/2 - phi/4) times that
    bracket over u.  A non-zero constant term of the bracket raises
    ArithmeticError.  Non-integer values are reported on the warning
    channel, never rejected.
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
    acc = [0] * (top + 1)
    for k in range(top, -1, -1):
        acc = _series_mul(acc, y, top)
        acc[0] += c[k].numerator * (den // c[k].denominator) * s ** (top - k)
    bracket = [Fraction(a, 2 * den * s**top) for a in acc]
    if p.is_poincare:
        bracket = [b + e for b, e in zip(bracket, _binomial_series(Fraction(1, 120), top))]
    if bracket[0] != 0:
        raise ArithmeticError(f"tail of {p} has constant term {bracket[0]}, expected 0")
    shift = _binomial_series(Fraction(1, 2) - phi_invariant(p) / 4, order)
    lambdas = _series_mul(shift, bracket[1:], order)
    series = OhtsukiSeries(manifold=p, order=order, lambdas=tuple(lambdas))
    if not series.all_integer:
        bad = [n for n, lam in enumerate(series.lambdas) if lam.denominator != 1]
        logger.warning("non-integer lambda_n for %s at orders %s", p, bad)
    return series


# ---------------------------------------------------------------------------
# bundled reference table


def table1_path() -> str:
    override = os.environ.get(TABLE_ENV_VAR)
    if override:
        return override
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

