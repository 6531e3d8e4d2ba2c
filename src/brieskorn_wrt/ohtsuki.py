"""Perturbative series of the quantum invariant and its exact coefficients.

The trivial-connection series tau_infinity, expanded in powers of (q - 1),
has exact rational coefficients lambda_n, read off the L-values of the
(1, 1, 1) nearly modular tail in the paper's explicit form: one sum over the
signed Stirling numbers of the first kind, O(order^2) integer steps in all,
with one ``Fraction`` per lambda_n.  A bundled reference table (26
manifolds, orders 0..8) provides golden data; BWRT_TABLE1_PATH overrides its
location.
"""

from __future__ import annotations

import math
import operator
import os
from fractions import Fraction
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


def lambda_coefficients(p: BrieskornTriple, order: int) -> OhtsukiSeries:
    """lambda_n for n = 0..order, exact.

    With c_k = L(-2k, chi)/k! the (1, 1, 1) ``eichler_tail`` coefficients,
    g = (2 - phi) P = 1 - P - T and s the signed Stirling numbers of the first
    kind, lambda_n = sum_{m=1}^{n+1} s(n+1, m) J_m / (2 (n+1)! (4P)^m) with
    J_m = m! sum_k c_k g^(m-k)/(m-k)!, plus (-1)^(n+1) on the Poincare sphere.
    That is the tail (1/2) sum_k c_k (log q / 4P)^k (plus q^(1/120) on the
    Poincare sphere) times q^(1/2 - phi/4) = exp(g log q / 4P), over u = q - 1,
    read off (log q)^m/m! = sum_N s(N, m) u^N/N!.  The J_m are integers over
    one common denominator and each Stirling row is built from the last, so
    each lambda_n is one integer dot product and one ``Fraction``.  A non-zero
    constant term c_0/2 (plus 1 on the Poincare sphere) raises ArithmeticError.
    Non-integer values are reported on the warning channel, never rejected.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    top = order + 1
    c = eichler_tail(p, EllTriple(1, 1, 1), top)
    constant = c[0] / 2 + p.is_poincare
    if constant:
        raise ArithmeticError(f"tail of {p} has constant term {constant}, expected 0")
    g = int((2 - phi_invariant(p)) * p.P)
    den, four_p = math.lcm(*(ck.denominator for ck in c)), 4 * p.P
    scaled = [ck.numerator * (den // ck.denominator) for ck in c]
    # w_m = den J_m (4P)^(top - m): lambda_n is sum_m s(n+1, m) w_m over common (n+1)!
    w = [
        sum(scaled[k] * math.perm(m, k) * g ** (m - k) for k in range(m + 1)) * four_p ** (top - m)
        for m in range(top + 1)
    ]
    common = 2 * den * four_p**top
    stirling, factorial, lambdas = [1], 1, []
    for n in range(top):
        stirling = [a - n * b for a, b in zip([0, *stirling], [*stirling, 0])]  # s(n + 1, m)
        factorial *= n + 1
        numerator = sum(map(operator.mul, stirling, w))
        if p.is_poincare:
            numerator += (-1) ** (n + 1) * common * factorial
        lambdas.append(Fraction(numerator, common * factorial))
    series = OhtsukiSeries(manifold=p, order=order, lambdas=tuple(lambdas))
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

